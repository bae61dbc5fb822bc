package core

import (
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/relq"
)

// These tests assert the consistency semantics of §2.3: for a query
// injected at time 0 and observed at time T, the set H of endsystems whose
// results are included satisfies H = H_U(0,T) — every endsystem available
// for sufficient time during [0,T] is counted, and counted exactly once.

func TestConsistencyHEqualsHU(t *testing.T) {
	n := 100
	horizon := 3 * 24 * time.Hour
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 11))
	cfg := DefaultClusterConfig(trace, 11)
	cfg.Workload.MeanFlowsPerDay = 30
	c := NewCluster(cfg)

	injectAt := 24 * time.Hour
	c.RunUntil(injectAt)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	h := c.InjectQuery(findLiveInjector(t, c), q)

	observeAt := injectAt + 20*time.Hour
	c.RunUntil(observeAt)

	// H_U(0,T): endsystems continuously up for at least a protocol-scale
	// window at some point within the query lifetime. The lower bound
	// uses a generous window (an endsystem up for 10 minutes has
	// certainly received and processed the query); the upper bound is
	// |H_U| with any positive uptime.
	grace := 10 * time.Minute
	var lowerRows, upperRows int64
	var lowerSet, upperSet int64
	for i, node := range c.Nodes {
		p := trace.Profiles[i]
		rows, err := node.tables["Flow"].CountMatching(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		long, short := false, false
		for _, iv := range p.Up {
			if iv.End <= injectAt || iv.Start >= observeAt {
				continue
			}
			s, e := iv.Start, iv.End
			if s < injectAt {
				s = injectAt
			}
			if e > observeAt {
				e = observeAt
			}
			if e-s > 0 {
				short = true
			}
			// The interval must also leave time before the observation to
			// propagate the result.
			if e-s >= grace && s+grace <= observeAt-5*time.Minute {
				long = true
			}
		}
		if long {
			lowerSet++
			lowerRows += rows
		}
		if short {
			upperSet++
			upperRows += rows
		}
	}

	last, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no results")
	}
	if last.Contributors < lowerSet {
		t.Errorf("contributors %d < |H_U lower bound| %d: some long-available endsystem missed",
			last.Contributors, lowerSet)
	}
	if last.Contributors > upperSet {
		t.Errorf("contributors %d > |H_U upper bound| %d: phantom or duplicate contributions",
			last.Contributors, upperSet)
	}
	if last.Partial.Count < lowerRows {
		t.Errorf("rows %d < lower bound %d", last.Partial.Count, lowerRows)
	}
	if last.Partial.Count > upperRows {
		t.Errorf("rows %d > upper bound %d: double counting", last.Partial.Count, upperRows)
	}
}

func TestConsistencyExactlyOnceAcrossManyCycles(t *testing.T) {
	// A long run with many up/down cycles per endsystem: contributors must
	// never exceed the population and the final count must equal the
	// true total once everyone has been up.
	n := 60
	horizon := 4 * 24 * time.Hour
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 12))
	cfg := DefaultClusterConfig(trace, 12)
	cfg.Workload.MeanFlowsPerDay = 20
	c := NewCluster(cfg)

	injectAt := 24 * time.Hour
	c.RunUntil(injectAt)
	q := relq.MustParse("SELECT SUM(Bytes) FROM Flow")
	h := c.InjectQuery(findLiveInjector(t, c), q)
	c.RunUntil(horizon)

	for _, r := range h.Results {
		if r.Contributors > int64(n) {
			t.Fatalf("contributors %d exceed population %d", r.Contributors, n)
		}
	}
	// Everyone with data who was ever up long enough should be in by now
	// (3 days after injection, multiple day cycles).
	last, _ := lastUpdate(h)
	total := c.TrueRelevantRows(q)
	if last.Partial.Count != total {
		// Allow endsystems that never appeared within the window.
		missing := total - last.Partial.Count
		var neverUp int64
		for i := range c.Nodes {
			if !trace.Profiles[i].AvailableThroughout(injectAt, injectAt) &&
				trace.Profiles[i].UpTimeIn(injectAt, horizon) < 10*time.Minute {
				rows, _ := c.Nodes[i].tables["Flow"].CountMatching(q, 0)
				neverUp += rows
			}
		}
		if missing > neverUp {
			t.Errorf("final rows %d, true total %d; missing %d exceeds never-up rows %d",
				last.Partial.Count, total, missing, neverUp)
		}
	}
}

func TestQueryUnderMessageLoss(t *testing.T) {
	// 2% uniform message loss: dissemination retransmission and
	// aggregation refresh must still produce a predictor and converge to
	// a near-complete result.
	n := 80
	horizon := 2 * 24 * time.Hour
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 13))
	cfg := DefaultClusterConfig(trace, 13)
	cfg.Workload.MeanFlowsPerDay = 30
	cfg.Net.LossRate = 0.02
	c := NewCluster(cfg)

	injectAt := 24 * time.Hour
	c.RunUntil(injectAt)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	h := c.InjectQuery(findLiveInjector(t, c), q)
	c.RunUntil(injectAt + 12*time.Hour)

	if h.Predictor == nil {
		t.Fatal("no predictor under 2% loss")
	}
	last, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no results under loss")
	}
	total := c.TrueRelevantRows(q)
	frac := float64(last.Partial.Count) / float64(total)
	if frac < 0.85 {
		t.Errorf("completeness %.2f after 12h under 2%% loss", frac)
	}
	if last.Partial.Count > total {
		t.Error("double counting under loss")
	}
}

func TestPredictorStrongerGuarantee(t *testing.T) {
	// §2.3's predictor guarantee: the endsystems contributing to the
	// predictor approximate H_U(-inf, T_e) — every endsystem that was
	// ever available has metadata somewhere, so the predictor's expected
	// total covers (nearly) all rows, not just currently-live ones.
	n := 80
	horizon := 3 * 24 * time.Hour
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 14))
	cfg := DefaultClusterConfig(trace, 14)
	cfg.Workload.MeanFlowsPerDay = 30
	c := NewCluster(cfg)
	c.RunUntil(24 * time.Hour) // midnight: a good fraction down

	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	h := c.InjectQuery(findLiveInjector(t, c), q)
	c.RunUntil(c.Sched.Now() + 5*time.Minute)
	if h.Predictor == nil {
		t.Fatal("no predictor")
	}
	// Rows on endsystems that were ever up before injection.
	var everUpRows int64
	for i, node := range c.Nodes {
		if trace.Profiles[i].UpTimeIn(0, 24*time.Hour) > 0 {
			rows, _ := node.tables["Flow"].CountMatching(q, 0)
			everUpRows += rows
		}
	}
	got := h.Predictor.ExpectedTotal()
	if got < 0.85*float64(everUpRows) {
		t.Errorf("predictor total %.0f misses ever-available rows %d", got, everUpRows)
	}
	if got > 1.1*float64(everUpRows) {
		t.Errorf("predictor total %.0f exceeds ever-available rows %d", got, everUpRows)
	}
}
