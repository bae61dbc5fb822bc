package aggtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/agg"
	"repro/internal/ids"
	"repro/internal/pastry"
	"repro/internal/relq"
	"repro/internal/simnet"
)

func TestVConvergesToQueryID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		qid := ids.Random(rng)
		v := ids.Random(rng)
		steps := 0
		for v != qid {
			nv := V(qid, v, 4)
			if nv == v {
				t.Fatalf("V stuck at %v for qid %v", v, qid)
			}
			v = nv
			steps++
			if steps > 32 {
				t.Fatalf("V did not converge within 32 steps")
			}
		}
	}
}

func TestVGrowsSuffixByOne(t *testing.T) {
	f := func(qHi, qLo, vHi, vLo uint64) bool {
		qid := ids.ID{Hi: qHi, Lo: qLo}
		v := ids.ID{Hi: vHi, Lo: vLo}
		if qid == v {
			return V(qid, v, 4) == qid
		}
		before := ids.CommonSuffixLen(qid, v, 4)
		after := ids.CommonSuffixLen(qid, V(qid, v, 4), 4)
		return after >= before+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVRootIsQueryID(t *testing.T) {
	qid := ids.MustParse("0123456789abcdef0123456789abcdef")
	if V(qid, qid, 4) != qid {
		t.Fatal("V(q, q) must be q")
	}
}

// ------------------------------------------------------------- harness

type testHost struct {
	node    *pastry.Node
	engine  *Engine
	results []resultEvent
	// drop, when set, sees every payload routed to this host and loses the
	// ones it reports true for (a drop on the last hop).
	drop func(payload any) bool
}

type resultEvent struct {
	part         agg.Partial
	contributors int64
}

func (h *testHost) PastryNode() *pastry.Node { return h.node }

func (h *testHost) ResultDelivered(qid ids.ID, part agg.Partial, contributors int64, span uint64) {
	h.results = append(h.results, resultEvent{part, contributors})
}

func (h *testHost) Deliver(key ids.ID, from simnet.Endpoint, payload any) {
	if h.drop != nil && h.drop(payload) {
		return
	}
	h.engine.HandleMessage(from, payload)
}

func (h *testHost) LeafsetChanged() {
	if h.engine != nil {
		h.engine.HandleLeafsetChanged()
	}
}

type cluster struct {
	sched *simnet.Wheel
	ring  *pastry.Ring
	hosts []*testHost
}

func newCluster(t *testing.T, n int, seed int64, cfg Config) *cluster {
	t.Helper()
	c := &cluster{sched: simnet.NewWheel()}
	topo := simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	ncfg := simnet.DefaultNetworkConfig()
	ncfg.Seed = seed
	net := simnet.NewNetwork(c.sched, topo, n, ncfg)
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

var testQuery = relq.MustParse("SELECT SUM(Bytes) FROM Flow")

// latestResult returns the injector's most recent result event.
func latestResult(t *testing.T, h *testHost) resultEvent {
	t.Helper()
	if len(h.results) == 0 {
		t.Fatal("injector received no results")
	}
	return h.results[len(h.results)-1]
}

func TestAllNodesSubmitAggregatesExactly(t *testing.T) {
	n := 64
	c := newCluster(t, n, 1, DefaultConfig())
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q1")
	injector := c.hosts[0].node.Endpoint()
	// Every node submits value i+1 for one row each.
	for i, h := range c.hosts {
		var p agg.Partial
		p.Observe(float64(i + 1))
		h.engine.Submit(qid, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	got := latestResult(t, c.hosts[0])
	want := float64(n * (n + 1) / 2)
	if got.part.Final(agg.Sum) != want {
		t.Fatalf("sum = %v, want %v", got.part.Final(agg.Sum), want)
	}
	if got.contributors != int64(n) {
		t.Fatalf("contributors = %d, want %d", got.contributors, n)
	}
	if got.part.Count != int64(n) {
		t.Fatalf("row count = %d, want %d", got.part.Count, n)
	}
}

func TestResubmissionCountsOnce(t *testing.T) {
	n := 32
	c := newCluster(t, n, 2, DefaultConfig())
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q2")
	injector := c.hosts[0].node.Endpoint()
	for i, h := range c.hosts {
		var p agg.Partial
		p.Observe(float64(i + 1))
		h.engine.Submit(qid, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + time.Minute)
	// Node 5 re-submits an updated result (new version): replaces, never
	// double counts.
	var p2 agg.Partial
	p2.Observe(1000)
	c.hosts[5].engine.Submit(qid, p2, testQuery, injector, 0)
	c.sched.RunUntil(c.sched.Now() + time.Minute)
	got := latestResult(t, c.hosts[0])
	want := float64(n*(n+1)/2) - 6 + 1000
	if got.part.Final(agg.Sum) != want {
		t.Fatalf("sum after resubmission = %v, want %v", got.part.Final(agg.Sum), want)
	}
	if got.contributors != int64(n) {
		t.Fatalf("contributors = %d, want %d (no double count)", got.contributors, n)
	}
}

func TestIncrementalArrival(t *testing.T) {
	// Nodes submit over time; the injector's running result grows
	// monotonically in contributors and never over-counts.
	n := 48
	c := newCluster(t, n, 3, DefaultConfig())
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q3")
	injector := c.hosts[0].node.Endpoint()
	rng := rand.New(rand.NewSource(9))
	for i, h := range c.hosts {
		i, h := i, h
		at := c.sched.Now() + time.Duration(rng.Int63n(int64(time.Hour)))
		c.sched.At(at, func() {
			var p agg.Partial
			p.Observe(float64(i + 1))
			h.engine.Submit(qid, p, testQuery, injector, 0)
		})
	}
	c.sched.RunUntil(c.sched.Now() + 2*time.Hour)
	prev := int64(0)
	for _, ev := range c.hosts[0].results {
		if ev.contributors < prev {
			// Transient decreases can only come from divergent primaries;
			// the final state is what matters, but flag big regressions.
			if prev-ev.contributors > int64(n/4) {
				t.Fatalf("contributors regressed from %d to %d", prev, ev.contributors)
			}
		}
		if ev.contributors > int64(n) {
			t.Fatalf("contributors %d exceeds node count %d", ev.contributors, n)
		}
		prev = ev.contributors
	}
	got := latestResult(t, c.hosts[0])
	if got.contributors != int64(n) {
		t.Fatalf("final contributors = %d, want %d", got.contributors, n)
	}
	if got.part.Final(agg.Sum) != float64(n*(n+1)/2) {
		t.Fatalf("final sum = %v", got.part.Final(agg.Sum))
	}
}

func TestSurvivesInteriorFailures(t *testing.T) {
	// After everyone submits, kill several nodes (possible vertex
	// primaries). Refresh and takeover must restore the full aggregate at
	// the injector.
	n := 64
	cfg := DefaultConfig()
	cfg.RefreshPeriod = time.Minute
	c := newCluster(t, n, 4, cfg)
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q4")
	injector := c.hosts[0].node.Endpoint()
	for i, h := range c.hosts {
		var p agg.Partial
		p.Observe(float64(i + 1))
		h.engine.Submit(qid, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + time.Minute)

	rng := rand.New(rand.NewSource(5))
	killed := map[int]bool{}
	var killedSum float64
	for len(killed) < 8 {
		i := 1 + rng.Intn(n-1)
		if killed[i] {
			continue
		}
		killed[i] = true
		killedSum += float64(i + 1)
		c.hosts[i].node.Stop()
	}
	c.sched.RunUntil(c.sched.Now() + 20*time.Minute)

	got := latestResult(t, c.hosts[0])
	want := float64(n * (n + 1) / 2)
	// Killed nodes' results must persist (they submitted before dying):
	// the paper's guarantee is that submitted results survive endsystem
	// failure via the replica groups.
	if got.part.Final(agg.Sum) < want-1e-9 {
		t.Fatalf("sum after failures = %v, want %v (submitted results must persist)",
			got.part.Final(agg.Sum), want)
	}
	if got.part.Final(agg.Sum) > want+1e-9 {
		t.Fatalf("sum after failures = %v exceeds %v: double counting", got.part.Final(agg.Sum), want)
	}
}

func TestLateJoinersContribute(t *testing.T) {
	// Some nodes start dead; they join later and submit. The injector
	// result must grow to include them.
	n := 49
	c := newCluster(t, n, 6, DefaultConfig())
	// Stop the last 8 nodes immediately.
	for i := n - 8; i < n; i++ {
		c.hosts[i].node.Stop()
	}
	c.sched.RunUntil(time.Minute)
	qid := ids.HashString("q5")
	injector := c.hosts[0].node.Endpoint()
	for i := 0; i < n-8; i++ {
		var p agg.Partial
		p.Observe(float64(i + 1))
		c.hosts[i].engine.Submit(qid, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + 5*time.Minute)
	partial := latestResult(t, c.hosts[0]).part.Final(agg.Sum)

	// The late nodes come up and submit.
	for i := n - 8; i < n; i++ {
		i := i
		c.sched.At(c.sched.Now()+time.Second, func() {
			h := c.hosts[i]
			h.engine.Reset()
			h.node.OnReady = func() {
				var p agg.Partial
				p.Observe(float64(i + 1))
				h.engine.Submit(qid, p, testQuery, injector, 0)
			}
			h.node.Start()
		})
	}
	c.sched.RunUntil(c.sched.Now() + 10*time.Minute)
	got := latestResult(t, c.hosts[0])
	want := float64(n * (n + 1) / 2)
	if math.Abs(got.part.Final(agg.Sum)-want) > 1e-9 {
		t.Fatalf("final sum = %v, want %v (partial was %v)", got.part.Final(agg.Sum), want, partial)
	}
	if got.contributors != int64(n) {
		t.Fatalf("contributors = %d, want %d", got.contributors, n)
	}
}

func TestTreeDepthIsLogarithmic(t *testing.T) {
	// The leaf optimization should keep per-node vertex counts small:
	// total vertices across the system ≈ interior nodes of an O(log N)
	// tree, far below naive 32-level chains per endsystem.
	n := 128
	c := newCluster(t, n, 7, DefaultConfig())
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q6")
	injector := c.hosts[0].node.Endpoint()
	for i, h := range c.hosts {
		var p agg.Partial
		p.Observe(float64(i + 1))
		h.engine.Submit(qid, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	vertices := 0
	for _, h := range c.hosts {
		vertices += h.engine.NumVertices()
	}
	if vertices > 3*n {
		t.Fatalf("total vertices = %d for %d nodes: tree not compact", vertices, n)
	}
}

func TestActiveQueriesTracked(t *testing.T) {
	c := newCluster(t, 16, 8, DefaultConfig())
	c.sched.RunUntil(time.Second)
	injector := c.hosts[0].node.Endpoint()
	var p agg.Partial
	p.Observe(1)
	qids := []ids.ID{ids.HashString("q7"), ids.HashString("q7b"), ids.HashString("q7c"), ids.HashString("q7d")}
	for i, qid := range qids {
		c.hosts[3].engine.Submit(qid, p, testQuery, injector, uint64(i+1))
	}
	c.sched.RunUntil(c.sched.Now() + time.Minute)
	c.hosts[3].engine.CancelPropagate(qids[1])
	// The list is in queryId order and leaves out the canceled query.
	qs := c.hosts[3].engine.ActiveQueries()
	if len(qs) != len(qids)-1 {
		t.Fatalf("%d active queries, want %d", len(qs), len(qids)-1)
	}
	for i, a := range qs {
		if i > 0 && !qs[i-1].ID.Less(a.ID) {
			t.Fatalf("active queries out of queryId order at %d", i)
		}
		if a.ID == qids[1] {
			t.Fatal("canceled query still listed")
		}
		if a.Query != testQuery || a.Injector != injector || a.Cause == 0 {
			t.Fatalf("entry %d: query, injector or cause not recorded: %+v", i, a)
		}
	}
}

func TestCancelPropagateReclaimsVertices(t *testing.T) {
	n := 64
	c := newCluster(t, n, 9, DefaultConfig())
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("q-cancel")
	injector := c.hosts[0].node.Endpoint()
	for i, h := range c.hosts {
		var p agg.Partial
		p.Observe(float64(i + 1))
		h.engine.Submit(qid, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	total := 0
	for _, h := range c.hosts {
		total += h.engine.NumVertices()
	}
	if total == 0 {
		t.Fatal("no vertices before cancel")
	}
	if len(c.hosts[0].results) == 0 {
		t.Fatal("injector received no results before cancel")
	}

	c.hosts[0].engine.CancelPropagate(qid)
	c.sched.RunUntil(c.sched.Now() + time.Minute)
	total = 0
	for _, h := range c.hosts {
		total += h.engine.NumVertices()
	}
	if total != 0 {
		t.Fatalf("%d vertices survived cancel propagation", total)
	}
	for _, h := range c.hosts {
		if h.engine.IsActive(qid) {
			t.Fatalf("endsystem %d still considers the query active", h.node.Endpoint())
		}
	}

	// A straggler submission after the cancel must not resurrect tree
	// state or deliver new results: the receiving vertex primary holds a
	// cancel tombstone and drops the contribution.
	results := len(c.hosts[0].results)
	var p agg.Partial
	p.Observe(1000)
	c.hosts[5].engine.Submit(qid, p, testQuery, injector, 0)
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	if got := len(c.hosts[0].results); got != results {
		t.Fatalf("injector received %d new results after cancel", got-results)
	}
	total = 0
	for _, h := range c.hosts {
		total += h.engine.NumVertices()
	}
	if total != 0 {
		t.Fatalf("straggler submission resurrected %d vertices", total)
	}
}

// TestReplDeltaInlineMatchesTable checks that a delta carrying its one
// child inline installs at a backup exactly what the one-entry table form
// did: new entry, newer version, stale version, refresh with unchanged
// content.
func TestReplDeltaInlineMatchesTable(t *testing.T) {
	c := newCluster(t, 16, 11, DefaultConfig())
	c.sched.RunUntil(time.Second)
	qid := ids.HashString("delta")
	// Two backups: endsystems that are not the vertex's root.
	var backups []*Engine
	for _, h := range c.hosts {
		if !h.node.IsRootOf(qid) {
			backups = append(backups, h.engine)
		}
	}
	inline, table := backups[0], backups[1]
	child := ids.HashString("child")
	var one, two agg.Partial
	one.Observe(1)
	two.Observe(2)
	steps := []contribution{
		{Version: 2, Part: one, Contributors: 1}, // new
		{Version: 3, Part: two, Contributors: 1}, // newer, other content
		{Version: 1, Part: one, Contributors: 1}, // stale
		{Version: 4, Part: two, Contributors: 1}, // refresh
	}
	rootVertex := func(e *Engine) *vertexState {
		st := e.queries[qid]
		if i, ok := st.findVertex(qid); ok {
			return st.vertices[i]
		}
		return nil
	}
	for i, s := range steps {
		base := replMsg{QID: qid, Vertex: qid, UpVersion: uint64(i), Injector: 0, Query: testQuery}
		d, m := base, base
		d.Child, d.C = child, s
		m.Children.put(child, s)
		inline.applyRepl(&d)
		table.applyRepl(&m)
		a, b := rootVertex(inline), rootVertex(table)
		if a == nil || b == nil {
			t.Fatalf("step %d: vertex missing", i)
		}
		ac, aok := a.children.get(child)
		bc, bok := b.children.get(child)
		if !aok || !bok || ac != bc || len(a.children) != 1 || len(b.children) != 1 {
			t.Fatalf("step %d: inline installed %+v, table %+v", i, a.children, b.children)
		}
		if a.dirty != b.dirty || a.upVersion != b.upVersion || a.primary != b.primary {
			t.Fatalf("step %d: vertex state differs: inline dirty=%v up=%d primary=%v, table dirty=%v up=%d primary=%v",
				i, a.dirty, a.upVersion, a.primary, b.dirty, b.upVersion, b.primary)
		}
	}
	if got, _ := rootVertex(inline).children.get(child); got.Version != 4 {
		t.Fatalf("final version %d, want 4", got.Version)
	}
}

// TestResetKeepsOnlyOwnContribution: a restart leaves an engine with
// nothing volatile — no vertex, no timer, no active query — and with
// exactly the records that hold an own contribution, so the next Submit
// carries the next version to the persisted entry vertex. A query the
// endsystem only heard of through the tree is gone.
func TestResetKeepsOnlyOwnContribution(t *testing.T) {
	n := 32
	c := newLossyCluster(t, n, 13, hedgedConfig(), 0)
	c.sched.RunUntil(time.Second)
	own, heard := ids.HashString("q-reset-own"), ids.HashString("q-reset-heard")
	injector := c.hosts[0].node.Endpoint()
	// Everyone contributes to the first query, every other endsystem to the
	// second. The victim is one that did not, but hosts a vertex of that
	// tree all the same, and whose own entry vertex lives elsewhere.
	submitAll(c, own)
	for i := 0; i < n; i += 2 {
		var p agg.Partial
		p.Observe(1)
		c.hosts[i].engine.Submit(heard, p, testQuery, injector, 0)
	}
	c.sched.RunUntil(c.sched.Now() + 30*time.Second)
	var victim *testHost
	var entry ids.ID
	for _, h := range c.hosts {
		st := h.engine.queries[heard]
		entry, _ = h.engine.EntryVertex(own)
		if st != nil && st.own.Version == 0 && len(st.vertices) > 0 && !h.node.IsRootOf(entry) &&
			h.engine.HedgeTimers() > 0 {
			victim = h
			break
		}
	}
	if victim == nil {
		t.Fatal("no endsystem hosts a vertex of a tree it does not contribute to with a ladder timer armed")
	}
	e := victim.engine
	// A leaf timer stays armed only while a contribution is unacknowledged:
	// the victim submits an update whose ack is lost.
	victim.drop = func(payload any) bool { _, ack := payload.(*ackMsg); return ack }
	var update agg.Partial
	update.Observe(1000)
	e.Submit(own, update, testQuery, injector, 0)
	c.sched.RunUntil(c.sched.Now() + time.Second)
	if e.HedgeTimers() == 0 || e.ResubmitTimers() == 0 {
		t.Fatalf("%d ladder timers and %d leaf timers armed before the restart, want some of each",
			e.HedgeTimers(), e.ResubmitTimers())
	}
	prev := e.queries[own].own

	victim.node.Stop()
	e.Reset()
	if e.NumVertices() != 0 || e.HedgeTimers() != 0 || e.ResubmitTimers() != 0 || len(e.ActiveQueries()) != 0 {
		t.Fatalf("after Reset: %d vertices, %d ladder timers, %d resubmit timers, %d active queries; want none",
			e.NumVertices(), e.HedgeTimers(), e.ResubmitTimers(), len(e.ActiveQueries()))
	}
	if e.IsActive(own) {
		t.Fatal("a query not heard of since the restart counts as active")
	}
	if got, ok := e.EntryVertex(own); !ok || got != entry {
		t.Fatalf("entry vertex after Reset = %v, %v; want %v", got, ok, entry)
	}
	if len(e.queries) != 1 || e.queries[own] == nil {
		t.Fatalf("Reset kept %d records, want only the one with an own contribution", len(e.queries))
	}

	// The rejoin re-submission: same vertex, next version, and sent even
	// though the partial is the one submitted before the restart.
	var sent []*submitMsg
	for _, h := range c.hosts {
		h.drop = func(payload any) bool {
			if m, ok := payload.(*submitMsg); ok && m.Child == victim.node.ID() {
				sent = append(sent, m)
			}
			return false
		}
	}
	victim.node.OnReady = func() { e.Submit(own, prev.Part, testQuery, injector, 0) }
	victim.node.Start()
	c.sched.RunUntil(c.sched.Now() + 10*time.Second)
	if len(sent) != 1 || sent[0].Vertex != entry || sent[0].C.Version != prev.Version+1 || sent[0].C.Part != prev.Part {
		t.Fatalf("after the restart the entry vertex %v received %+v, want one submission at version %d", entry, sent, prev.Version+1)
	}
}
