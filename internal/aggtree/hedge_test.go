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

// hedgedConfig is the test configuration with the re-assertion ladder on:
// tight refresh so runs stay short.
func hedgedConfig() Config {
	cfg := plainConfig()
	cfg.Reassert = true
	return cfg
}

// plainConfig is hedgedConfig without the ladder.
func plainConfig() Config {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = 2 * time.Minute
	return cfg
}

// newLossyCluster is newCluster with independent Bernoulli message loss:
// the environment the ladder exists for.
func newLossyCluster(t *testing.T, n int, seed int64, cfg Config, loss float64) *cluster {
	t.Helper()
	c := &cluster{sched: simnet.NewWheel()}
	topo := simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	ncfg := simnet.DefaultNetworkConfig()
	ncfg.Seed = seed
	ncfg.LossRate = loss
	net := simnet.NewNetwork(c.sched, topo, n, ncfg)
	// The base harness runs without observability; these tests assert on
	// the re-assertion counter, so attach a real metrics layer.
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

// counter reads one of the cluster's shared counters.
func (c *cluster) counter(name string) uint64 {
	return c.ring.Obs().Counter(name).Value()
}

// totalHedgeTimers sums armed re-assertion timers.
func (c *cluster) totalHedgeTimers() int {
	n := 0
	for _, h := range c.hosts {
		n += h.engine.HedgeTimers()
	}
	return n
}

// TestHedgingExactlyOnceUnderLoss is the headline property: under
// sustained independent message loss the tree with the ladder on still
// converges to the exact aggregate — re-assertion retransmissions and leaf
// resubmits all dedupe through the versioned child tables — and the ladder
// demonstrably engaged.
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
	if c.counter("aggtree_hedge_reasserts") == 0 {
		t.Fatal("no re-assertion fired under 15% loss: the ladder never engaged")
	}
}

// TestHedgedMatchesUnhedgedResult: the ladder must be invisible in the
// final aggregate — the same cluster and submissions converge to identical
// results with it on and off (a retransmission is the same aggregate at a
// newer version, recorded as a refresh on arrival).
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
	a, b := run(hedgedConfig()), run(plainConfig())
	if a.part.Final(agg.Sum) != b.part.Final(agg.Sum) || a.contributors != b.contributors {
		t.Fatalf("hedged result (sum %v, %d contributors) != unhedged (sum %v, %d contributors)",
			a.part.Final(agg.Sum), a.contributors, b.part.Final(agg.Sum), b.contributors)
	}
}

// TestHedgeTimerCleanupOnCancel extends the vertex-reclaim invariant to
// the ladder: cancel propagation must cancel every armed re-assertion and
// leaf-resubmit timer along with the vertices.
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
		t.Fatal("no re-assertion timers armed mid-run; the cleanup assertion would be vacuous")
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
// must cancel every re-assertion timer. The surviving cluster must still
// converge exactly after losing vertex primaries.
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

	// Takeover replaces the dead primary; re-assertions on the survivors
	// must not double count across the handover.
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

// TestReassertRecoversDroppedForward is the ladder's own tooth. On a
// converged lossless tree one leaf submits an update, and the first routed
// forward that carries it between two interior vertices is dropped. That
// forward is the only copy on its way up: the leaf's resubmits dedupe at
// its entry vertex, and the sending vertex cleared dirty when it sent. With
// Reassert the update is through by the first rung (10 s plus the routes
// to the injector); without it nothing moves until the sender's
// unconditional refresh pass, every third tick.
func TestReassertRecoversDroppedForward(t *testing.T) {
	const n = 64
	want := float64(n*(n+1)/2 + 1000)
	// run returns whether the injector has the leaf's update one second
	// after the first rung, a plain refresh tick later, and after the
	// safety pass.
	run := func(cfg Config) (byRung, byTick, byPass bool) {
		c := newLossyCluster(t, n, 17, cfg, 0)
		c.sched.RunUntil(time.Second)
		qid := ids.HashString("q-reassert-drop")
		submitAll(c, qid)
		c.sched.RunUntil(30 * time.Second)

		primaryOf := func(vertex ids.ID) *testHost {
			root, _ := c.ring.Root(vertex)
			return c.hosts[root.EP]
		}
		// Walk up from the last host's entry vertex to the first tree edge
		// whose two ends live on different endsystems.
		leaf := c.hosts[n-1]
		child, _ := leaf.engine.EntryVertex(qid)
		parent := V(qid, child, pastry.B)
		for primaryOf(child) == primaryOf(parent) {
			if parent == qid {
				t.Fatal("no routed interior edge above the leaf")
			}
			child, parent = parent, V(qid, parent, pastry.B)
		}
		dropped := 0
		primaryOf(parent).drop = func(payload any) bool {
			m, ok := payload.(*submitMsg)
			if !ok || m.Child != child || dropped > 0 {
				return false
			}
			dropped++
			return true
		}

		var p agg.Partial
		p.Observe(float64(n + 1000))
		t0 := c.sched.Now()
		leaf.engine.Submit(qid, p, testQuery, c.hosts[0].node.Endpoint(), 0)
		has := func() bool { return latestResult(t, c.hosts[0]).part.Final(agg.Sum) == want }
		c.sched.RunUntil(t0 + reassertBase + time.Second)
		byRung = has()
		c.sched.RunUntil(t0 + cfg.RefreshPeriod)
		byTick = has()
		c.sched.RunUntil(t0 + 3*cfg.RefreshPeriod)
		byPass = has()
		if dropped != 1 {
			t.Fatalf("dropped %d forwards, want exactly 1", dropped)
		}
		return
	}
	if byRung, _, _ := run(hedgedConfig()); !byRung {
		t.Fatal("with Reassert the update had not reached the injector one second after the first rung")
	}
	byRung, byTick, byPass := run(plainConfig())
	if byRung || byTick {
		t.Fatalf("without Reassert the dropped forward was recovered before the safety pass (by rung %v, by tick %v)", byRung, byTick)
	}
	if !byPass {
		t.Fatal("without Reassert the refresh safety pass did not recover the dropped forward")
	}
}
