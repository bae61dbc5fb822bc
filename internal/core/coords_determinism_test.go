package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// coordsRun is clusterRun with the Vivaldi subsystem enabled and a
// second, RTT-scoped query: coordinate updates ride every protocol
// receive, delegate and entry-vertex selection read the coordinates, and
// the scoped query exercises the frozen-scope pruning path. The returned
// bytes include both query logs, the scope audit, and the full metrics
// registry (coords_* series included).
func coordsRun(t *testing.T) string {
	t.Helper()
	tr := avail.GenerateFarsite(avail.DefaultFarsiteConfig(100, 36*time.Hour, 3))
	cfg := DefaultClusterConfig(tr, 3)
	cfg.Workload.MeanFlowsPerDay = 50
	cfg.Coords = coords.Enabled()
	o := obs.New()
	cfg.Obs = o
	c := NewCluster(cfg)

	c.RunUntil(12 * time.Hour)
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"))

	c.RunUntil(18 * time.Hour)
	// Scoped query: pick the radius from the injector's predicted RTTs so
	// the scope always splits the population.
	inj2 := findLiveInjector(t, c)
	sp := c.Coords()
	rtts := make([]time.Duration, 0, len(c.Nodes))
	for ep := range c.Nodes {
		if simnet.Endpoint(ep) != inj2 {
			rtts = append(rtts, sp.PredictRTT(inj2, simnet.Endpoint(ep)))
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	radius := rtts[len(rtts)/2]
	q2 := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	q2.RTTScope = radius
	h2 := c.InjectQuery(inj2, q2)
	c.RunUntil(30 * time.Hour)

	var out bytes.Buffer
	fmt.Fprintf(&out, "executed=%d live=%d injectors=%d,%d radius=%d\n",
		c.Sched.Executed(), c.NumLive(), inj, inj2, radius)
	st := c.Net.Stats()
	for _, cl := range []simnet.Class{simnet.ClassMaintenance, simnet.ClassQuery} {
		fmt.Fprintf(&out, "class=%d tx=%v rx=%v\n", cl, st.TotalTx(cl), st.TotalRx(cl))
	}
	for _, hh := range []*QueryHandle{h, h2} {
		fmt.Fprintf(&out, "query=%s updates=%d\n", hh.QueryID, len(hh.Results))
		for _, u := range hh.Results {
			fmt.Fprintf(&out, "  at=%d count=%d sum=%v contributors=%d\n",
				u.At, u.Partial.Count, u.Partial.Sum, u.Contributors)
		}
	}
	members, _ := sp.ScopeMembers(h2.QueryID)
	fmt.Fprintf(&out, "scope members=%d oracle_rows=%d\n",
		len(members), c.TrueRowsInScope(h2.QueryID, q2))
	if err := o.Registry().WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestCoordsByteDeterminism is the coordinate subsystem's determinism
// gate: with Vivaldi updates, coordinate-biased selection and an
// RTT-scoped query all active, the full observable output — result logs,
// traffic totals, the scope audit, the registry including the coords_*
// series — must be byte-identical when the same seed runs twice.
func TestCoordsByteDeterminism(t *testing.T) {
	ref := coordsRun(t)
	if len(ref) == 0 {
		t.Fatal("reference run produced no output")
	}
	diffLines(t, "coords run 1 vs run 2", ref, coordsRun(t))
}

// TestRTTScopeProtocol audits the scoped-query protocol against the
// frozen-snapshot oracle: no endsystem outside the scope
// may enter the aggregation tree, the converged result must count exactly
// the in-scope rows, and dissemination must actually have pruned
// out-of-scope subranges.
func TestRTTScopeProtocol(t *testing.T) {
	tr := avail.GenerateFarsite(avail.DefaultFarsiteConfig(100, 36*time.Hour, 5))
	cfg := DefaultClusterConfig(tr, 5)
	cfg.Workload.MeanFlowsPerDay = 50
	cfg.Coords = coords.Enabled()
	o := obs.New()
	cfg.Obs = o
	c := NewCluster(cfg)

	c.RunUntil(12 * time.Hour)
	inj := findLiveInjector(t, c)
	sp := c.Coords()
	rtts := make([]time.Duration, 0, len(c.Nodes))
	for ep := range c.Nodes {
		if simnet.Endpoint(ep) != inj {
			rtts = append(rtts, sp.PredictRTT(inj, simnet.Endpoint(ep)))
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	q := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	q.RTTScope = rtts[len(rtts)/2]
	h := c.InjectQuery(inj, q)
	c.RunUntil(36 * time.Hour)

	members, ok := sp.ScopeMembers(h.QueryID)
	if !ok {
		t.Fatal("scoped query registered no scope")
	}
	if len(members) == 0 || len(members) >= len(c.Nodes) {
		t.Fatalf("median radius should split the population, got %d of %d members",
			len(members), len(c.Nodes))
	}
	for ep := range c.Nodes {
		if _, submitted := c.Nodes[ep].TreeEntryVertex(h.QueryID); !submitted {
			continue
		}
		if !sp.InScope(h.QueryID, simnet.Endpoint(ep)) {
			t.Errorf("endsystem %d entered the tree from outside the scope", ep)
		}
	}
	last, ok := lastUpdate(h)
	if !ok {
		t.Fatal("scoped query produced no results")
	}
	if oracle := c.TrueRowsInScope(h.QueryID, q); last.Partial.Count != oracle {
		t.Errorf("scoped query converged to %d rows, oracle says %d", last.Partial.Count, oracle)
	}
	if pruned := o.Counter("rttscope_pruned").Value(); pruned == 0 {
		t.Error("dissemination never pruned a subrange despite a half-population scope")
	}
}
