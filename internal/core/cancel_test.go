package core

import (
	"testing"
	"time"

	"repro/internal/aggtree"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// End-to-end cancellation: cancelling a query must broadcast down its
// aggregation tree, reclaim every vertex, and silence all query-class
// traffic — not merely stop result delivery at the injector while
// refresh timers keep burning bandwidth until the TTL backstop.
func TestCancelReclaimsTreeAndSilencesTraffic(t *testing.T) {
	const n = 80
	trace := alwaysUpTrace(n, 24*time.Hour)
	cfg := DefaultClusterConfig(trace, 77)
	cfg.Workload.MeanFlowsPerDay = 30
	// Long TTL so reclamation observed here is cancellation, not expiry.
	cfg.Node.Agg.QueryTTL = 48 * time.Hour
	c := NewCluster(cfg)

	// Let joins and metadata settle: on an always-up trace there are no
	// further membership changes, so after this point the only
	// query-class traffic is the query we inject.
	c.RunUntil(4 * time.Hour)

	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	done := false
	h.WhenDone(func() { done = true })

	c.RunUntil(c.Sched.Now() + 30*time.Minute)
	if _, ok := lastUpdate(h); !ok {
		t.Fatal("no results before cancel")
	}
	vertices := 0
	for _, node := range c.Nodes {
		vertices += node.tree.NumVertices()
	}
	if vertices == 0 {
		t.Fatal("no aggregation-tree vertices while query active")
	}

	c.CancelQuery(h, inj)
	if !h.Cancelled || !done {
		t.Fatalf("after cancel: Cancelled %v, completion hook ran %v", h.Cancelled, done)
	}
	if got := c.Obs().Counter("queries_cancelled").Value(); got != 1 {
		t.Fatalf("queries_cancelled = %d, want 1", got)
	}

	// Give the cancel broadcast time to reach every vertex, then demand
	// total reclamation and flat query-class byte counters.
	c.RunUntil(c.Sched.Now() + 2*time.Minute)
	for i, node := range c.Nodes {
		if nv := node.tree.NumVertices(); nv != 0 {
			t.Fatalf("node %d still holds %d vertices after cancel: %s",
				i, nv, node.tree.DebugFull(h.QueryID))
		}
	}
	results := len(h.Results)
	queryBytes := c.Net.Stats().TotalTx(simnet.ClassQuery)
	c.RunUntil(c.Sched.Now() + 30*time.Minute)
	if got := c.Net.Stats().TotalTx(simnet.ClassQuery); got != queryBytes {
		t.Fatalf("query-class traffic after cancel: %v -> %v bytes", queryBytes, got)
	}
	if len(h.Results) > results {
		t.Fatalf("results delivered after cancel: %d -> %d", results, len(h.Results))
	}
}

// TestCancelSurvivesRestart: a restart does not forget a cancel. An
// endsystem that contributed to a query restarts after the query was
// canceled and is then handed the query in a neighbor's active-query list,
// as a rejoining endsystem is. It sends nothing, and no vertex of the
// query's tree comes back anywhere. (Reset used to keep such a record with
// its cancel cleared, and the endsystem re-submitted.)
func TestCancelSurvivesRestart(t *testing.T) {
	const n = 64
	cfg := DefaultClusterConfig(alwaysUpTrace(n, 12*time.Hour), 79)
	cfg.Workload.MeanFlowsPerDay = 30
	c := NewCluster(cfg)
	c.RunUntil(2 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 10*time.Minute)
	var victim *Node
	for ep, node := range c.Nodes {
		if _, ok := node.TreeEntryVertex(h.QueryID); ok && simnet.Endpoint(ep) != inj {
			victim = node
			break
		}
	}
	if victim == nil {
		t.Fatal("nobody but the injector contributed")
	}
	c.CancelQuery(h, inj)
	c.RunUntil(c.Sched.Now() + 2*time.Minute)
	victim.GoDown()
	c.RunUntil(c.Sched.Now() + time.Minute)
	victim.GoUp()
	c.RunUntil(c.Sched.Now() + 10*time.Minute)
	if !victim.Alive() {
		t.Fatal("the endsystem did not rejoin")
	}

	queryBytes := c.Net.Stats().TotalTx(simnet.ClassQuery)
	victim.handleQueryListPush(&queryListPush{Queries: []aggtree.ActiveQuery{{ID: h.QueryID, Query: q, Injector: inj}}})
	c.RunUntil(c.Sched.Now() + 30*time.Minute)
	if got := c.Net.Stats().TotalTx(simnet.ClassQuery); got != queryBytes {
		t.Fatalf("the restarted endsystem was handed the canceled query and %v query bytes were sent", got-queryBytes)
	}
	for ep, node := range c.Nodes {
		if nv := node.tree.NumVertices(); nv != 0 {
			t.Fatalf("endsystem %d holds %d vertices of the canceled query", ep, nv)
		}
	}
}

// The cluster's half of the query service lifecycle (internal/qserve):
// the test plays the service, which injects each started query, balances
// queries_active through WhenDone, and retires every query with a cancel
// at its result window — whether it completed first or not. Each query's
// completion hook runs exactly once, however it ends and however often it
// is retired, so the gauge returns to zero and never below it.
func TestQueryServiceLifecycle(t *testing.T) {
	trace := alwaysUpTrace(40, 12*time.Hour)
	cfg := DefaultClusterConfig(trace, 78)
	cfg.Workload.MeanFlowsPerDay = 30
	c := NewCluster(cfg)
	c.RunUntil(2 * time.Hour)
	inj := findLiveInjector(t, c)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE SrcPort=80")
	active := c.Obs().Gauge("queries_active")

	const n = 3
	var hs []*QueryHandle
	fired := make([]int, n)
	for i := 0; i < n; i++ {
		// A query's ID derives from its injector and injection instant.
		c.RunUntil(c.Sched.Now() + time.Second)
		h := c.InjectQuery(inj, q)
		active.Add(1)
		h.WhenDone(func() { active.Add(-1); fired[i]++ })
		hs = append(hs, h)
	}
	if got := active.Value(); got != n {
		t.Fatalf("queries_active = %v with %d running queries", got, n)
	}

	// Cancel one query while it runs; let the others run on.
	c.RunUntil(c.Sched.Now() + 10*time.Minute)
	c.CancelQuery(hs[0], inj)
	if !hs[0].Cancelled || fired[0] != 1 {
		t.Fatalf("running query after cancel: Cancelled %v, hook ran %d times", hs[0].Cancelled, fired[0])
	}
	c.RunUntil(c.Sched.Now() + 4*time.Hour)
	completed := 0
	for i, h := range hs[1:] {
		if h.Completed {
			completed++
			if fired[i+1] != 1 {
				t.Fatalf("completed query %d: hook ran %d times", i+1, fired[i+1])
			}
		}
	}
	if completed == 0 {
		t.Fatal("no query completed on its own; the completed-then-retired path went untested")
	}

	// Retire every query, the already-cancelled one included.
	for _, h := range hs {
		c.CancelQuery(h, inj)
	}
	for i, h := range hs {
		if !h.Cancelled {
			t.Fatalf("query %d: not Cancelled after retire (Completed %v)", i, h.Completed)
		}
		if fired[i] != 1 {
			t.Fatalf("query %d: completion hook ran %d times", i, fired[i])
		}
	}
	if got := active.Value(); got != 0 {
		t.Fatalf("queries_active = %v after every query ended", got)
	}
	if got := c.Obs().Counter("queries_cancelled").Value(); got != n+1 {
		t.Fatalf("queries_cancelled = %d, want %d (one per CancelQuery call)", got, n+1)
	}
	// A hook registered on a terminal query runs at once.
	late := false
	hs[0].WhenDone(func() { late = true })
	if !late {
		t.Fatal("WhenDone on a terminal query did not run")
	}
}
