package core

import (
	"testing"
	"time"

	"repro/internal/aggtree"
	"repro/internal/avail"
	"repro/internal/obs"
	"repro/internal/relq"
)

// TestQueryExecutesOncePerUptime: Node.executed is the one guard that makes
// an endsystem run a query at most once per uptime session. The
// dissemination engine reports the query with every range task it begins
// (several an endsystem, more when lost responses make parents reissue
// requests to other delegates), and a rejoining endsystem is pushed the
// active-query list by up to three neighbors. Whichever arrives first
// executes; however many follow, of either kind, do not. A third of the
// endsystems restart once while the query is active, half of those from
// before the injection, so both orders occur.
func TestQueryExecutesOncePerUptime(t *testing.T) {
	const n = 60
	const horizon = 8 * time.Hour
	const injectAt = 2 * time.Hour
	trace := alwaysUpTrace(n, horizon)
	// backAt[i] is when endsystem i starts its second uptime session.
	backAt := make([]time.Duration, n)
	for i := 1; i < n; i += 3 {
		downAt := injectAt + 10*time.Minute // executes, restarts, is handed the list
		if i%2 == 0 {
			downAt = injectAt - 10*time.Minute // down at the injection: the list comes first
		}
		backAt[i] = injectAt + 20*time.Minute + time.Duration(i)*time.Second
		trace.Profiles[i] = &avail.Profile{Up: []avail.Interval{{Start: 0, End: downAt}, {Start: backAt[i], End: horizon}}}
	}
	cfg := DefaultClusterConfig(trace, 29)
	cfg.Net.LossRate = 0.05
	cfg.Workload.MeanFlowsPerDay = 30
	o := obs.New()
	sink := &captureSink{}
	o.SetTracer(obs.NewTracer(sink))
	cfg.Obs = o
	c := NewCluster(cfg)
	c.RunUntil(injectAt)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(injectAt + time.Hour)

	// Then once more of each, to every endsystem, in both orders.
	for _, node := range c.Nodes {
		push := &queryListPush{Queries: []aggtree.ActiveQuery{{ID: h.QueryID, Query: q, Injector: inj}}}
		node.handleQueryListPush(push)
		node.QueryObserved(h.QueryID, q, inj, 0)
		node.handleQueryListPush(push)
	}

	type session struct{ ep, nth int }
	runs := make(map[session]int)
	kinds := make(map[obs.Kind]int)
	for _, ev := range sink.events {
		if ev.Kind != obs.KindExec && ev.Kind != obs.KindAvailExec {
			continue
		}
		kinds[ev.Kind]++
		s := session{ep: ev.EP}
		if backAt[ev.EP] > 0 && ev.T >= backAt[ev.EP] {
			s.nth = 1
		}
		runs[s]++
	}
	for s, k := range runs {
		if k > 1 {
			t.Errorf("endsystem %d executed the query %d times in uptime session %d", s.ep, k, s.nth)
		}
	}
	// Everyone ran it in the session the run ended in, the restarted ones
	// off a neighbor's list.
	for ep := 0; ep < n; ep++ {
		last := session{ep: ep}
		if backAt[ep] > 0 {
			last.nth = 1
		}
		if runs[last] == 0 {
			t.Errorf("endsystem %d never executed the query in its last uptime session", ep)
		}
	}
	if kinds[obs.KindAvailExec] < n/3 {
		t.Errorf("%d executions off a list handoff, want at least the %d restarted endsystems", kinds[obs.KindAvailExec], n/3)
	}
	if o.Counter("dissem_reissues").Value() == 0 {
		t.Error("no dissemination reissues: loss not exercised")
	}
}
