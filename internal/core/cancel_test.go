package core

import (
	"testing"
	"time"

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
	svc := NewQueryService(c)

	// Let joins and metadata settle: on an always-up trace there are no
	// further membership changes, so after this point the only
	// query-class traffic is the query we inject.
	c.RunUntil(4 * time.Hour)

	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	sq := svc.Admit(inj, q, "interactive")
	svc.Enqueue(sq)
	h := svc.Start(sq)
	if sq.State != QueryRunning || sq.StartedAt != c.Sched.Now() {
		t.Fatalf("after Start: state %v started %s", sq.State, sq.StartedAt)
	}

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

	svc.Cancel(sq)
	if !sq.State.Terminal() {
		t.Fatalf("state %v after cancel", sq.State)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel open after cancel")
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

// The service façade walks the full lifecycle and keeps the
// queries_active gauge balanced; shed queries never reach the cluster.
func TestQueryServiceLifecycle(t *testing.T) {
	trace := alwaysUpTrace(40, 12*time.Hour)
	cfg := DefaultClusterConfig(trace, 78)
	cfg.Workload.MeanFlowsPerDay = 30
	c := NewCluster(cfg)
	svc := NewQueryService(c)
	c.RunUntil(2 * time.Hour)
	inj := findLiveInjector(t, c)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")

	shed := svc.Admit(inj, q, "batch")
	svc.Enqueue(shed)
	svc.Shed(shed)
	if shed.State != QueryShed || shed.Handle != nil {
		t.Fatalf("shed query: state %v handle %v", shed.State, shed.Handle)
	}

	queuedCancel := svc.Admit(inj, q, "batch")
	svc.Enqueue(queuedCancel)
	svc.Cancel(queuedCancel)
	if queuedCancel.State != QueryCancelled {
		t.Fatalf("queued cancel: state %v", queuedCancel.State)
	}

	run := svc.Admit(inj, q, "interactive")
	h := svc.Start(run)
	if got := c.Obs().Gauge("queries_active").Value(); got != 1 {
		t.Fatalf("queries_active = %v with one running query", got)
	}
	done := false
	h.whenDone(func() { done = true })
	c.RunUntil(c.Sched.Now() + time.Hour)
	svc.Cancel(run)
	if run.State != QueryCancelled && run.State != QueryComplete {
		t.Fatalf("running query ended in state %v", run.State)
	}
	if run.FinishedAt < 0 || !done {
		t.Fatalf("finish bookkeeping missed: finishedAt %s done %v", run.FinishedAt, done)
	}
	if got := c.Obs().Gauge("queries_active").Value(); got != 0 {
		t.Fatalf("queries_active = %v after all queries ended", got)
	}
	if got := c.Obs().Counter("queries_shed").Value(); got != 1 {
		t.Fatalf("queries_shed = %d, want 1", got)
	}
}
