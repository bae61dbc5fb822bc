package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/obs"
	"repro/internal/relq"
)

// hedgeRun executes a full packet-level cluster with churn and one
// injected query, with the aggregation tree's re-assertion ladder on or
// off, and returns the observable outputs: the metrics registry JSON,
// executed-event count, the query's full result log, separately the final
// result tuple for cross-mode comparison, and how many rungs fired.
func hedgeRun(t *testing.T, reassert bool) (output, final string, reasserts uint64) {
	t.Helper()
	tr := avail.GenerateFarsite(avail.DefaultFarsiteConfig(100, 36*time.Hour, 3))
	cfg := DefaultClusterConfig(tr, 3)
	cfg.Workload.MeanFlowsPerDay = 50
	cfg.Node.Agg.Reassert = reassert
	o := obs.New()
	cfg.Obs = o
	c := NewCluster(cfg)

	c.RunUntil(12 * time.Hour)
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"))
	c.RunUntil(24 * time.Hour)

	var out bytes.Buffer
	fmt.Fprintf(&out, "executed=%d live=%d injector=%d\n", c.Sched.Executed(), c.NumLive(), inj)
	fmt.Fprintf(&out, "query=%s updates=%d\n", h.QueryID, len(h.Results))
	for _, u := range h.Results {
		fmt.Fprintf(&out, "  at=%d count=%d sum=%v contributors=%d\n",
			u.At, u.Partial.Count, u.Partial.Sum, u.Contributors)
	}
	if err := o.Registry().WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if len(h.Results) > 0 {
		u := h.Results[len(h.Results)-1]
		final = fmt.Sprintf("count=%d sum=%v contributors=%d",
			u.Partial.Count, u.Partial.Sum, u.Contributors)
	}
	return out.String(), final, o.Counter("aggtree_hedge_reasserts").Value()
}

// TestHedgedByteDeterminism: the ladder keeps runs byte-deterministic —
// the complete output of a run with it on (metrics, event count, every
// incremental result) is identical when the same seed runs twice.
func TestHedgedByteDeterminism(t *testing.T) {
	ref, _, reasserts := hedgeRun(t, true)
	if len(ref) == 0 {
		t.Fatal("reference hedged run produced no output")
	}
	if reasserts == 0 {
		t.Fatal("no re-assertion fired in the reference run: the comparison would not exercise the ladder")
	}
	got, _, _ := hedgeRun(t, true)
	diffLines(t, "hedged run 1 vs run 2", ref, got)
}

// TestHedgedMatchesUnhedgedFinalResult: a re-assertion is the same
// aggregate at a newer version, so for the same seed the runs with and
// without the ladder must converge to the same final aggregate
// (retransmissions may shift when intermediate updates arrive, never what
// the query ultimately returns).
func TestHedgedMatchesUnhedgedFinalResult(t *testing.T) {
	_, hedged, _ := hedgeRun(t, true)
	_, plain, _ := hedgeRun(t, false)
	if hedged == "" || plain == "" {
		t.Fatalf("a run delivered no results (hedged=%q plain=%q)", hedged, plain)
	}
	if hedged != plain {
		t.Fatalf("final results differ: hedged %s vs unhedged %s", hedged, plain)
	}
}
