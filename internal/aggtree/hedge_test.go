package aggtree

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// hedgedConfig is the test hedging configuration: tight refresh so runs
// stay short, hedging at p95 with a fixed seed.
func hedgedConfig() Config {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = 2 * time.Minute
	cfg.HedgeQuantile = 0.95
	cfg.HedgeSeed = 99
	return cfg
}

// newLossyCluster is newCluster with independent Bernoulli message loss:
// the environment hedging exists for.
func newLossyCluster(t *testing.T, n int, seed int64, cfg Config, loss float64) *cluster {
	t.Helper()
	c := &cluster{sched: simnet.NewScheduler()}
	topo := simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	ncfg := simnet.DefaultNetworkConfig()
	ncfg.Seed = seed
	ncfg.LossRate = loss
	net := simnet.NewNetwork(c.sched, topo, n, ncfg)
	// The base harness runs without observability; the hedging tests
	// assert on the hedge counters, so attach a real metrics layer.
	net.SetObs(obs.New())
	pcfg := pastry.DefaultConfig()
	pcfg.Seed = seed
	c.ring = pastry.NewRing(net, pcfg)
	rng := rand.New(rand.NewSource(seed))
	idList := ids.RandomN(rng, n)
	c.hosts = make([]*testHost, n)
	eps := make([]simnet.Endpoint, n)
	for i := 0; i < n; i++ {
		h := &testHost{}
		c.hosts[i] = h
		h.node = c.ring.AddNode(simnet.Endpoint(i), idList[i], h)
		h.engine = NewEngine(h, cfg)
		eps[i] = simnet.Endpoint(i)
	}
	c.ring.BootstrapAll(eps)
	return c
}

// submitAll has every host submit value i+1 for one row each.
func submitAll(c *cluster, qid ids.ID) {
	injector := c.hosts[0].node.Endpoint()
	for i, h := range c.hosts {
		var p agg.Partial
		p.Observe(float64(i + 1))
		h.engine.Submit(qid, p, testQuery, injector, 0)
	}
}

// hedgeCounter reads one of the shared hedging counters.
func (c *cluster) counter(name string) uint64 {
	return c.ring.Obs().Counter(name).Value()
}

// totalHedgeTimers sums armed hedge watch + re-assertion timers.
func (c *cluster) totalHedgeTimers() int {
	n := 0
	for _, h := range c.hosts {
		n += h.engine.HedgeTimers()
	}
	return n
}

// findHedgedVertex locates a vertex primary that is actively hedging an
// interior child (one that advertised backups), along with a live replica
// engine for that child vertex.
func findHedgedVertex(c *cluster, qid ids.ID) (parent *testHost, v *vertexState, child ids.ID, childPrimary, childReplica *Engine) {
	for _, h := range c.hosts {
		for key, vs := range h.engine.vertices {
			if key.qid != qid || !vs.primary {
				continue
			}
			for cid, ch := range vs.hedge {
				if len(ch.backups) == 0 {
					continue
				}
				var prim, repl *Engine
				for _, h2 := range c.hosts {
					if cv, ok := h2.engine.vertices[vertexKey{qid: qid, vertex: cid}]; ok && len(cv.children) > 0 {
						if cv.primary {
							prim = h2.engine
						} else if repl == nil {
							repl = h2.engine
						}
					}
				}
				if prim != nil && repl != nil {
					return h, vs, cid, prim, repl
				}
			}
		}
	}
	return nil, nil, ids.ID{}, nil, nil
}

// TestHedgingExactlyOnceUnderLoss is the headline hedging property: under
// sustained independent message loss the hedged tree still converges to
// the exact aggregate — duplicate pulls, duplicate answers, re-assertion
// retransmissions and leaf resubmits all dedupe through the versioned
// child tables — and the hedging machinery demonstrably engaged.
func TestHedgingExactlyOnceUnderLoss(t *testing.T) {
	n := 64
	c := newLossyCluster(t, n, 11, hedgedConfig(), 0.15)
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q-hedge-loss")
	submitAll(c, qid)
	c.sched.RunUntil(c.sched.Now() + 30*time.Minute)

	got := latestResult(t, c.hosts[0])
	want := float64(n * (n + 1) / 2)
	if got.part.Final(agg.Sum) != want {
		t.Fatalf("sum under loss = %v, want %v", got.part.Final(agg.Sum), want)
	}
	if got.contributors != int64(n) {
		t.Fatalf("contributors = %d, want %d", got.contributors, n)
	}
	if c.counter("aggtree_hedges_issued") == 0 {
		t.Fatal("no hedges issued under 15% loss: the policy never engaged")
	}
	if c.counter("aggtree_hedges_won")+c.counter("aggtree_hedges_wasted") == 0 {
		t.Fatal("no hedge answers arrived: pulls were never answered")
	}
}

// TestHedgedMatchesUnhedgedResult: hedging must be invisible in the final
// aggregate — the same cluster and submissions converge to identical
// results with hedging on and off (the duplicate answers are equivalent
// versioned state, deduped on arrival).
func TestHedgedMatchesUnhedgedResult(t *testing.T) {
	run := func(cfg Config) resultEvent {
		n := 64
		c := newLossyCluster(t, n, 12, cfg, 0.10)
		c.sched.RunUntil(time.Second)
		qid := ids.HashString("q-hedge-eq")
		submitAll(c, qid)
		c.sched.RunUntil(c.sched.Now() + 30*time.Minute)
		return latestResult(t, c.hosts[0])
	}
	plain := DefaultConfig()
	plain.RefreshPeriod = 2 * time.Minute
	a, b := run(hedgedConfig()), run(plain)
	if a.part.Final(agg.Sum) != b.part.Final(agg.Sum) || a.contributors != b.contributors {
		t.Fatalf("hedged result (sum %v, %d contributors) != unhedged (sum %v, %d contributors)",
			a.part.Final(agg.Sum), a.contributors, b.part.Final(agg.Sum), b.contributors)
	}
}

// TestHedgeReplicaAnswerAndLateRace exercises the pull path end to end on
// a converged lossless tree: a parent that loses a child contribution
// recovers it from one of the child's replicas (the replica answers from
// stale-but-versioned state), and when the child's own "late" original
// forward subsequently arrives it dedupes against the hedged answer
// instead of double counting.
func TestHedgeReplicaAnswerAndLateRace(t *testing.T) {
	n := 64
	c := newLossyCluster(t, n, 13, hedgedConfig(), 0)
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q-hedge-race")
	submitAll(c, qid)
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)

	want := latestResult(t, c.hosts[0])
	parent, v, child, _, replica := findHedgedVertex(c, qid)
	if parent == nil {
		t.Fatal("no hedged interior vertex with a live child replica found")
	}
	orig, ok := v.children.get(child)
	if !ok {
		t.Fatal("parent holds no contribution for the hedged child")
	}
	// Simulate a lost forward: the parent never received the child's
	// contribution (so its Have is zero), and pulls a replica directly.
	v.children.del(child)
	wonBefore := c.counter("aggtree_hedges_won")
	replica.handleHedgePull(&hedgePullMsg{QID: qid, Vertex: child, Parent: v.key.vertex,
		Have: 0, ReplyTo: parent.node.Endpoint()})
	c.sched.RunUntil(c.sched.Now() + time.Minute)

	if c.counter("aggtree_hedges_won") != wonBefore+1 {
		t.Fatalf("replica answer did not register as a hedge win")
	}
	rec, ok := v.children.get(child)
	if !ok {
		t.Fatal("replica answer did not restore the child contribution")
	}
	if rec.Part.Final(agg.Sum) != orig.Part.Final(agg.Sum) || rec.Contributors != orig.Contributors {
		t.Fatalf("restored contribution (sum %v, %d contributors) != original (sum %v, %d)",
			rec.Part.Final(agg.Sum), rec.Contributors, orig.Part.Final(agg.Sum), orig.Contributors)
	}

	// The child's original forward arrives late, racing the hedged answer
	// it lost to: the versioned table must drop it.
	dupsBefore := c.counter("aggtree_dup_contributions")
	parent.engine.applySubmit(&submitMsg{QID: qid, Vertex: v.key.vertex, Child: child,
		C: orig, Injector: c.hosts[0].node.Endpoint(), Query: testQuery})
	c.sched.RunUntil(c.sched.Now() + time.Minute)
	if c.counter("aggtree_dup_contributions") != dupsBefore+1 {
		t.Fatal("late original forward was not deduped against the hedged answer")
	}
	got := latestResult(t, c.hosts[0])
	if got.part.Final(agg.Sum) != want.part.Final(agg.Sum) || got.contributors != want.contributors {
		t.Fatalf("result changed after hedge race: (sum %v, %d contributors), want (sum %v, %d)",
			got.part.Final(agg.Sum), got.contributors, want.part.Final(agg.Sum), want.contributors)
	}
}

// TestHedgeAckStandsDownWatch: a hedge pull reaching a child primary that
// has nothing newer than the requester holds is answered with an ack, and
// the ack disarms the requester's watch (the child is done, not stuck).
func TestHedgeAckStandsDownWatch(t *testing.T) {
	n := 64
	c := newLossyCluster(t, n, 14, hedgedConfig(), 0)
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q-hedge-ack")
	submitAll(c, qid)
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)

	parent, v, child, childPrimary, _ := findHedgedVertex(c, qid)
	if parent == nil {
		t.Fatal("no hedged interior vertex with a live child replica found")
	}
	ch := v.hedge[child]
	ch.strikes = 3
	ackedBefore := c.counter("aggtree_hedge_acks")
	held, _ := v.children.get(child)
	childPrimary.handleHedgePull(&hedgePullMsg{QID: qid, Vertex: child, Parent: v.key.vertex,
		Have: held.Version, ReplyTo: parent.node.Endpoint()})
	// A tight window: long enough for the single-hop ack, short enough
	// that no organic refresh traffic re-arms the watch behind the test.
	c.sched.RunUntil(c.sched.Now() + time.Second)

	if c.counter("aggtree_hedge_acks") != ackedBefore+1 {
		t.Fatal("current child primary did not ack the hedge pull")
	}
	if ch.watch != nil {
		t.Fatal("ack did not disarm the hedge watch")
	}
	if ch.strikes != 0 {
		t.Fatalf("ack did not reset the strike backoff (strikes=%d)", ch.strikes)
	}
}

// TestHedgeTimerCleanupOnCancel extends the vertex-reclaim invariant to
// the hedging machinery: cancel propagation must cancel every armed hedge
// watch, re-assertion and leaf-resubmit timer along with the vertices
// (cancel-on-first-response is about timers as much as messages).
func TestHedgeTimerCleanupOnCancel(t *testing.T) {
	// Lossless: cancel propagation is best-effort, and a lost cancel
	// legitimately leaves state for TTL reclaim — the timer-cleanup
	// invariant is about cancels that arrive.
	n := 64
	c := newLossyCluster(t, n, 15, hedgedConfig(), 0)
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q-hedge-cancel")
	submitAll(c, qid)
	c.sched.RunUntil(c.sched.Now() + 90*time.Second)
	if c.totalHedgeTimers() == 0 {
		t.Fatal("no hedge timers armed mid-run under loss; the cleanup assertion would be vacuous")
	}

	c.hosts[0].engine.CancelPropagate(qid)
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	for _, h := range c.hosts {
		if got := h.engine.HedgeTimers(); got != 0 {
			t.Fatalf("endsystem %d leaked %d hedge timers after cancel", h.node.Endpoint(), got)
		}
		if got := h.engine.ResubmitTimers(); got != 0 {
			t.Fatalf("endsystem %d leaked %d resubmit timers after cancel", h.node.Endpoint(), got)
		}
		if got := h.engine.NumVertices(); got != 0 {
			t.Fatalf("endsystem %d kept %d vertices after cancel", h.node.Endpoint(), got)
		}
	}
}

// TestResetClearsHedgeState: a restart (GoDown/GoUp drives Engine.Reset)
// must drop the per-child response distributions and cancel every hedge
// timer — the stale-distribution leak this PR fixes. The surviving
// cluster must still converge exactly after losing vertex primaries.
func TestResetClearsHedgeState(t *testing.T) {
	n := 64
	c := newLossyCluster(t, n, 16, hedgedConfig(), 0.10)
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q-hedge-reset")
	submitAll(c, qid)
	c.sched.RunUntil(c.sched.Now() + 90*time.Second)

	var victim *testHost
	for _, h := range c.hosts[1:] {
		if h.engine.HedgeTimers() > 0 {
			victim = h
			break
		}
	}
	if victim == nil {
		t.Fatal("no host with armed hedge timers found")
	}
	victim.node.Stop()
	victim.engine.Reset()
	if got := victim.engine.HedgeTimers(); got != 0 {
		t.Fatalf("reset leaked %d hedge timers", got)
	}
	for _, v := range victim.engine.vertices {
		if v.hedge != nil {
			t.Fatal("reset kept per-child hedge state")
		}
	}

	// Takeover replaces the dead primary; hedging on the survivors must
	// not double count across the handover.
	c.sched.RunUntil(c.sched.Now() + 20*time.Minute)
	got := latestResult(t, c.hosts[0])
	want := float64(n * (n + 1) / 2)
	if got.part.Final(agg.Sum) != want {
		t.Fatalf("sum after primary loss = %v, want %v", got.part.Final(agg.Sum), want)
	}
	if got.contributors != int64(n) {
		t.Fatalf("contributors after primary loss = %d, want %d", got.contributors, n)
	}
}
