package core

import (
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/relq"
)

// End-to-end robustness tests: dissemination and aggregation running over
// sustained Bernoulli message loss layered on a high-churn Gnutella
// availability trace — the harshest standing conditions the paper
// considers, as opposed to the scripted episodes the chaos harness
// injects.

// lossChurnCluster builds an 80-endsystem cluster on the paper's
// high-churn trace (~30% mean availability) with 5% independent message
// loss — the MSPastry evaluation's worst loss rate.
func lossChurnCluster(seed int64, horizon time.Duration) (*Cluster, *avail.Trace) {
	n := 80
	trace := avail.GenerateGnutella(avail.DefaultGnutellaConfig(n, horizon, seed))
	cfg := DefaultClusterConfig(trace, seed)
	cfg.Net.LossRate = 0.05
	cfg.Workload.MeanFlowsPerDay = 30
	return NewCluster(cfg), trace
}

// TestDissemUnderLossAndChurn: a query injected into the lossy, churning
// system still produces a predictor and reaches the endsystems — the
// retry/backoff/route-diversity hardening holds up outside the scripted
// chaos scenarios.
func TestDissemUnderLossAndChurn(t *testing.T) {
	horizon := 36 * time.Hour
	c, _ := lossChurnCluster(17, horizon)
	injectAt := 12 * time.Hour
	c.RunUntil(injectAt)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	h := c.InjectQuery(findLiveInjector(t, c), q)

	c.RunUntil(injectAt + 12*time.Hour)
	if h.Predictor == nil {
		t.Fatal("no predictor under 5% loss + churn")
	}
	if len(h.Results) == 0 {
		t.Fatal("no result updates under 5% loss + churn")
	}
}

// TestAggTreeExactlyOnceUnderLossAndChurn: under loss, duplication of
// effort (reissues, re-submissions after rejoin, replica takeovers) is
// constant — but every endsystem's rows are still counted at most once,
// and the coverage bounds of §2.3 hold.
func TestAggTreeExactlyOnceUnderLossAndChurn(t *testing.T) {
	horizon := 36 * time.Hour
	c, trace := lossChurnCluster(23, horizon)
	injectAt := 12 * time.Hour
	c.RunUntil(injectAt)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	h := c.InjectQuery(findLiveInjector(t, c), q)

	observeAt := injectAt + 12*time.Hour
	c.RunUntil(observeAt)

	// Upper bound: rows on endsystems up at any point in the query
	// window. Lower bound: rows on endsystems continuously up from
	// injection to observation (they had every chance to be counted).
	grace := 10 * time.Minute
	var upperRows, lowerRows int64
	for i, node := range c.Nodes {
		rows, err := node.tables["Flow"].CountMatching(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		short, whole := false, false
		for _, iv := range trace.Profiles[i].Up {
			if iv.End <= injectAt || iv.Start >= observeAt {
				continue
			}
			short = true
			if iv.Start+grace <= injectAt && iv.End >= observeAt {
				whole = true
			}
		}
		if short {
			upperRows += rows
		}
		if whole {
			lowerRows += rows
		}
	}

	final, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no results under loss + churn")
	}
	n := int64(len(c.Nodes))
	for _, upd := range h.Results {
		if upd.Partial.Count > upperRows {
			t.Fatalf("double counting: result %d exceeds upper bound %d",
				upd.Partial.Count, upperRows)
		}
		if upd.Contributors > n {
			t.Fatalf("contributors %d exceed population %d", upd.Contributors, n)
		}
	}
	if final.Partial.Count < lowerRows {
		t.Fatalf("completeness: final count %d below lower bound %d (upper %d)",
			final.Partial.Count, lowerRows, upperRows)
	}

	// The run must actually have exercised the dedup machinery: with 5%
	// loss, reissues and re-submissions are certain.
	if c.Obs().Registry().Counter("dissem_reissues").Value() == 0 {
		t.Fatal("no dissemination reissues — loss not exercised")
	}
}
