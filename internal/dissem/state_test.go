package dissem

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/metadata"
	"repro/internal/pastry"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// Tests of the engine's per-query state: the response index against the
// linear scan it replaced, the retention rule, the frozen predictor, and
// the allocation ceilings of the range-task path.

// scanAwaited is the response matching the engine used before it had an
// index, kept as the oracle: walk every task, skip the other queries' and
// the finished ones, and look through the subranges for matching bounds.
// An answered or abandoned subrange resolves to nothing.
func scanAwaited(e *Engine, qid, lo, hi ids.ID) *subrange {
	for _, t := range e.tasks {
		if t.key.qid != qid || t.finished {
			continue
		}
		for i := range t.subs {
			if s := &t.subs[i]; s.lo == lo && s.hi == hi {
				if s.done {
					return nil
				}
				return s
			}
		}
	}
	return nil
}

// checkIndex fails unless the index resolves exactly what the scan does:
// every subrange of every unfinished task to the same (task, subrange),
// and nothing else.
func checkIndex(t *testing.T, e *Engine) {
	t.Helper()
	for key, tk := range e.tasks {
		if tk.key != key {
			t.Fatalf("task %v filed under %v", tk.key, key)
		}
		if tk.finished {
			continue
		}
		for i := range tk.subs {
			s := &tk.subs[i]
			k := taskKey{qid: key.qid, lo: s.lo, hi: s.hi}
			if got, want := e.awaited[k], scanAwaited(e, key.qid, s.lo, s.hi); got != want {
				t.Fatalf("subrange %v: index resolves %p, scan %p", k, got, want)
			}
		}
	}
	for k, s := range e.awaited {
		if want := scanAwaited(e, k.qid, k.lo, k.hi); want != s {
			t.Fatalf("index holds %v -> %p, scan resolves %p", k, s, want)
		}
	}
}

// queued is the number of tasks queued for expiry.
func (e *Engine) queued() int {
	n := 0
	for t := e.retired; t != nil; t = t.next {
		n++
	}
	return n
}

// -------------------------------------------------------------------- rig

// rigHost is the Host of an engine under test: ten local rows, no
// replicated metadata.
type rigHost struct {
	node   *pastry.Node
	engine *Engine
}

func (h *rigHost) PastryNode() *pastry.Node                                   { return h.node }
func (h *rigHost) EstimateOwnRows(*relq.Query) float64                        { return 10 }
func (h *rigHost) UnavailableInRange(lo, hi ids.ID) []*metadata.Record        { return nil }
func (h *rigHost) QueryObserved(ids.ID, *relq.Query, simnet.Endpoint, uint64) {}
func (h *rigHost) LeafsetChanged()                                            {}
func (h *rigHost) Deliver(_ ids.ID, from simnet.Endpoint, payload any) {
	h.engine.HandleMessage(from, payload)
}

// received is one message a sink was sent, with the predictor's value at
// the instant it arrived.
type received struct {
	to   simnet.Endpoint
	resp *rangeResp
	was  predictor.Predictor
}

// value is a snapshot of a predictor: a copy that shares no buckets with
// it (a value copy would).
func value(p *predictor.Predictor) predictor.Predictor {
	var v predictor.Predictor
	v.Merge(p)
	return v
}

// empty is the predictor of a range with nothing to report.
var empty predictor.Predictor

// sink is a ring member that runs no engine and records the responses it
// is sent (requests it swallows: its subranges never answer by themselves).
type sink struct {
	rig *rig
	ep  simnet.Endpoint
}

func (s *sink) LeafsetChanged() {}
func (s *sink) Deliver(_ ids.ID, _ simnet.Endpoint, payload any) {
	if m, ok := payload.(*rangeResp); ok && s.rig.record {
		s.rig.got = append(s.rig.got, received{to: s.ep, resp: m, was: value(m.Pred)})
	}
}

type idRange struct{ lo, hi ids.ID }

// rig is one engine on a ring whose other members are sinks. The engine
// sits on the smallest id; ranges are ranges above it that it is not in,
// is not alone in, and whose every subrange holds a ring member — so each
// of its range tasks over one is interior, has no local subrange, and no
// request routes back to it. The test then plays parents and children
// itself. leaves are ranges the engine answers at once: empty ones between
// two ring members, which contribute nothing, and own, the engine's id
// alone, which contributes the host's ten rows.
type rig struct {
	sched   *simnet.Wheel
	host    *rigHost
	e       *Engine
	ids     []ids.ID // endpoint i sits on ids[i]; ascending
	ranges  []idRange
	empties []idRange
	own     idRange
	got     []received
	record  bool
}

// leafRows is what the engine contributes to g as a leaf; ok is false when
// g is not one of the rig's leaves.
func (r *rig) leafRows(g idRange) (rows float64, ok bool) {
	if g == r.own {
		return r.host.EstimateOwnRows(nil), true
	}
	for _, e := range r.empties {
		if g == e {
			return 0, true
		}
	}
	return 0, false
}

func newRig(t *testing.T, n int, seed int64, cfg Config) *rig {
	t.Helper()
	r := &rig{record: true}
	sched, ring := newRing(n, seed)
	r.sched = sched
	sorted := ids.RandomN(rand.New(rand.NewSource(seed)), n)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	r.ids = sorted
	eps := make([]simnet.Endpoint, n)
	r.host = &rigHost{}
	r.host.node = ring.AddNode(0, sorted[0], r.host)
	for i := 1; i < n; i++ {
		ring.AddNode(simnet.Endpoint(i), sorted[i], &sink{rig: r, ep: simnet.Endpoint(i)})
		eps[i] = simnet.Endpoint(i)
	}
	ring.BootstrapAll(eps)
	r.e = NewEngine(r.host, cfg)
	r.host.engine = r.e
	r.sched.RunUntil(time.Minute)

	occupied := func(lo, hi ids.ID) bool {
		i := sort.Search(n, func(i int) bool { return !sorted[i].Less(lo) })
		return i < n && !hi.Less(sorted[i])
	}
	usable := func(g idRange) bool {
		if r.e.aloneInRange(g.lo, g.hi) {
			return false
		}
		for _, s := range splitRange(g.lo, g.hi, cfg.Arity) {
			if !occupied(s.lo, s.hi) {
				return false
			}
		}
		return true
	}
	for _, b := range []int{n / 4, n / 2, 3 * n / 4} {
		g := idRange{sorted[1], sorted[b]}
		if !usable(g) {
			continue
		}
		r.ranges = append(r.ranges, g)
		// Nested ranges too: a subrange one task awaits that is also the
		// range of another task.
		for _, s := range splitRange(g.lo, g.hi, cfg.Arity) {
			if sub := (idRange{s.lo, s.hi}); usable(sub) {
				r.ranges = append(r.ranges, sub)
				break
			}
		}
	}
	if len(r.ranges) < 4 {
		t.Fatalf("seed %d yields %d usable ranges, want at least 4 (two of them nested)", seed, len(r.ranges))
	}
	r.own = idRange{sorted[0], sorted[0]}
	for _, i := range []int{0, n / 3, n - 2} {
		g := idRange{sorted[i].AddUint64(1), sorted[i+1].Sub(ids.ID{Lo: 1})}
		if occupied(g.lo, g.hi) || !r.e.aloneInRange(g.lo, g.hi) {
			t.Fatalf("seed %d: the gap above member %d is not empty", seed, i)
		}
		r.empties = append(r.empties, g)
	}
	return r
}

func (r *rig) request(qid ids.ID, g idRange, parent simnet.Endpoint) {
	r.e.HandleMessage(parent, &rangeMsg{QueryID: qid, Query: testQuery, Lo: g.lo, Hi: g.hi,
		Parent: parent, Injector: parent})
}

func (r *rig) answer(qid ids.ID, s idRange, p *predictor.Predictor) {
	r.e.HandleMessage(1, &rangeResp{QueryID: qid, Lo: s.lo, Hi: s.hi, Pred: p})
}

// subs are the subranges the engine splits g into.
func (r *rig) subs(g idRange) []idRange {
	var out []idRange
	for _, s := range splitRange(g.lo, g.hi, r.e.cfg.Arity) {
		out = append(out, idRange{s.lo, s.hi})
	}
	return out
}

func (r *rig) advance(d time.Duration) { r.sched.RunUntil(r.sched.Now() + d) }

// rowsPred is a child's predictor of rows available now and half as many
// again spread over the delay buckets (by the uninformed availability
// model).
func rowsPred(rows float64) *predictor.Predictor {
	p := &predictor.Predictor{}
	p.AddImmediate(rows)
	p.AddModel(&avail.Model{}, 0, 0, rows/2)
	return p
}

func rigConfig() Config {
	cfg := DefaultConfig()
	cfg.Arity = 4
	return cfg
}

// ------------------------------------------------------ reference engine

// refEngine is the bookkeeping of the engine before the index, reduced to
// what the rig exercises (interior tasks without local subranges, leaves,
// fixed timeouts): tasks in a map, responses matched by the linear scan,
// a predictor by value in every task, rendered once per response. Tasks
// of an earlier incarnation run their retry ladder out and answer their
// parents, as the engine's do.
type refEngine struct {
	arity     int
	leafRows  func(idRange) (float64, bool)
	patience  time.Duration // from a request to the abandonment of what it did not hear
	tasks     map[taskKey]*refTask
	zombies   []*refTask
	out       []string
	nextOrder int
}

type refTask struct {
	key        taskKey
	parents    []simnet.Endpoint
	subs       []idRange
	done       []bool
	open       int
	acc        predictor.Predictor
	finished   bool
	abandonAt  time.Duration
	finishedAt time.Duration
	order      int
}

func sentString(to simnet.Endpoint, key taskKey, p *predictor.Predictor) string {
	return fmt.Sprintf("to=%d q=%s [%s,%s] now=%v total=%v", to, key.qid.Short(), key.lo, key.hi,
		p.Immediate, p.ExpectedTotal())
}

func (r *refEngine) respond(t *refTask) {
	for _, p := range t.parents {
		r.out = append(r.out, sentString(p, t.key, &t.acc))
	}
}

func (r *refEngine) finish(t *refTask, now time.Duration) {
	t.finished, t.finishedAt = true, now
	r.respond(t)
}

// advance runs the abandonments due by now, oldest first, and lets go of
// the tasks that finished a retention ago.
func (r *refEngine) advance(now time.Duration) {
	var due []*refTask
	for _, t := range r.tasks {
		if !t.finished && t.abandonAt <= now {
			due = append(due, t)
		}
	}
	for _, t := range r.zombies {
		if !t.finished && t.abandonAt <= now {
			due = append(due, t)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].order < due[j].order })
	for _, t := range due {
		r.finish(t, t.abandonAt)
	}
	for key, t := range r.tasks {
		if t.finished && t.finishedAt+retention <= now {
			delete(r.tasks, key)
		}
	}
}

func (r *refEngine) request(now time.Duration, qid ids.ID, g idRange, parent simnet.Endpoint) {
	r.advance(now)
	key := taskKey{qid: qid, lo: g.lo, hi: g.hi}
	if t, ok := r.tasks[key]; ok {
		known := false
		for _, p := range t.parents {
			known = known || p == parent
		}
		if !known {
			t.parents = append(t.parents, parent)
		}
		if t.finished {
			r.respond(t)
		}
		return
	}
	t := &refTask{key: key, parents: []simnet.Endpoint{parent}, abandonAt: now + r.patience, order: r.nextOrder}
	r.nextOrder++
	r.tasks[key] = t
	if rows, ok := r.leafRows(g); ok {
		if rows > 0 {
			t.acc.AddImmediate(rows)
		}
		r.finish(t, now)
		return
	}
	for _, s := range splitRange(g.lo, g.hi, r.arity) {
		t.subs = append(t.subs, idRange{s.lo, s.hi})
	}
	t.done = make([]bool, len(t.subs))
	t.open = len(t.subs)
}

func (r *refEngine) answer(now time.Duration, qid ids.ID, s idRange, p *predictor.Predictor) {
	r.advance(now)
	for _, t := range r.tasks {
		if t.key.qid != qid || t.finished {
			continue
		}
		for i, sub := range t.subs {
			if sub == s {
				if t.done[i] {
					return
				}
				t.done[i] = true
				t.acc.Merge(p)
				t.open--
				if t.open == 0 {
					r.finish(t, now)
				}
				return
			}
		}
	}
}

func (r *refEngine) reset() {
	for _, t := range r.tasks {
		if !t.finished {
			r.zombies = append(r.zombies, t)
		}
	}
	r.tasks = make(map[taskKey]*refTask)
}

// TestIndexAgainstLinearScan drives one engine and the reference through
// the same seeded random sequences of requests, responses, duplicates,
// reissues from new parents, abandonments and restarts — over interior
// ranges and leaves, with children and leaves that have something to
// report and ones that have nothing (the empty predictor). After every
// step the index must resolve what the scan resolves; at the end the
// parents must have been sent the same predictors.
func TestIndexAgainstLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := rigConfig()
		cfg.DisableBackoff = true // fixed timeouts: the reference can tell when a subrange is abandoned
		r := newRig(t, 128, 11, cfg)
		ref := &refEngine{arity: cfg.Arity, tasks: make(map[taskKey]*refTask), leafRows: r.leafRows,
			patience: time.Duration(cfg.MaxRetries+1) * responseTimeout}
		leaves := append([]idRange{r.own}, r.empties...)
		emptySent, emptyResponses := 0, 0
		rng := rand.New(rand.NewSource(seed))
		qids := ids.RandomN(rng, 3)
		parents := []simnet.Endpoint{2, 3, 5}
		var lastQ ids.ID
		var lastS idRange
		var lastP *predictor.Predictor
		for step := 0; step < 3000; step++ {
			now := r.sched.Now()
			qid := qids[rng.Intn(len(qids))]
			g := r.ranges[rng.Intn(len(r.ranges))]
			switch op := rng.Intn(100); {
			case op < 25: // a request, a reissue, or a reissue from a new parent
				if rng.Intn(5) == 0 {
					g = leaves[rng.Intn(len(leaves))]
				}
				parent := parents[rng.Intn(len(parents))]
				r.request(qid, g, parent)
				ref.request(now, qid, g, parent)
			case op < 65: // a response: awaited, already counted, or never asked for
				subs := r.subs(g)
				lastQ, lastS, lastP = qid, subs[rng.Intn(len(subs))], &empty
				if rng.Intn(3) > 0 { // else the subrange contributed nothing
					lastP = rowsPred(float64(1 + rng.Intn(1000)))
				} else {
					emptySent++
				}
				r.answer(lastQ, lastS, lastP)
				ref.answer(now, lastQ, lastS, lastP)
			case op < 75: // the last response again
				if lastP != nil {
					r.answer(lastQ, lastS, lastP)
					ref.answer(now, lastQ, lastS, lastP)
				}
			case op < 93: // a little time
				r.advance(time.Duration(rng.Int63n(int64(3 * time.Second))))
			case op < 98: // enough for abandonments and for retention to run out
				r.advance(10*time.Second + time.Duration(rng.Int63n(int64(3*time.Minute))))
			default:
				r.e.Reset()
				ref.reset()
			}
			checkIndex(t, r.e)
		}
		r.advance(10 * time.Minute)
		ref.advance(r.sched.Now())
		checkIndex(t, r.e)

		for _, tk := range r.e.tasks {
			if tk.parent == r.host.node.Endpoint() {
				t.Fatalf("seed %d: task %v was requested by the engine itself; the rig's ranges must not route back", seed, tk.key)
			}
		}
		var got []string
		for _, m := range r.got {
			got = append(got, sentString(m.to, taskKey{m.resp.QueryID, m.resp.Lo, m.resp.Hi}, &m.was))
			if !m.resp.Pred.Equal(&m.was) {
				t.Fatalf("seed %d: predictor of %v changed after it was sent", seed, m.resp.Lo)
			}
			if m.was.Equal(&empty) {
				emptyResponses++
			}
		}
		if emptySent == 0 || emptyResponses == 0 {
			t.Fatalf("seed %d: %d empty predictors sent in, %d sent out: the empty path was not exercised", seed, emptySent, emptyResponses)
		}
		want := ref.out
		sort.Strings(got)
		sort.Strings(want)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("seed %d: engine sent %d responses, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: response %d differs:\n engine    %s\n reference %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestIndexOnLiveCluster checks the index against the scan on real
// engines, local recursion and all, while endsystems crash and restart
// under a query stream.
func TestIndexOnLiveCluster(t *testing.T) {
	n := 64
	c := newCluster(t, n, 21, DefaultConfig())
	c.sched.RunUntil(time.Minute)
	rng := rand.New(rand.NewSource(22))
	predictors := 0
	for i := 0; i < 6; i++ {
		c.hosts[rng.Intn(4)].engine.Inject(testQuery, 0, func(*predictor.Predictor) { predictors++ })
		// Crash three endsystems inside the dissemination and bring them
		// back (a restart resets the engine) while reissues are in flight.
		for k := 0; k < 3; k++ {
			h := c.hosts[4+rng.Intn(n-4)]
			down := c.sched.Now() + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			c.sched.At(down, func() {
				if h.node.Alive() {
					h.meta.Deactivate()
					h.node.Stop()
				}
			})
			c.sched.At(down+time.Duration(1+rng.Intn(20))*time.Second, func() {
				if !h.node.Alive() {
					h.engine.Reset()
					h.node.OnReady = h.meta.Activate
					h.node.Start()
				}
			})
		}
		for end := c.sched.Now() + 40*time.Second; c.sched.Now() < end; {
			c.sched.RunUntil(c.sched.Now() + 20*time.Millisecond)
			for _, h := range c.hosts {
				checkIndex(t, h.engine)
			}
		}
	}
	if predictors < 5 {
		t.Fatalf("%d of 6 predictors arrived", predictors)
	}
}

// TestRestartMidQueryKeepsNewTask is the regression test for the reclaim
// that outlived a restart: a task finished, the endsystem restarted, and
// the same range was asked for again inside the old task's two minutes.
// The reclaim armed for the old task then deleted the new, unfinished one
// by key, and its children's responses were dropped.
func TestRestartMidQueryKeepsNewTask(t *testing.T) {
	r := newRig(t, 128, 11, rigConfig())
	qid := ids.HashString("restart")
	g := r.ranges[0]
	const parent = 2

	r.request(qid, g, parent)
	for _, s := range r.subs(g) {
		r.answer(qid, s, rowsPred(1))
	}
	old := r.e.tasks[taskKey{qid, g.lo, g.hi}]
	if old == nil || !old.finished {
		t.Fatal("first task did not finish")
	}

	r.advance(retention - 20*time.Second)
	r.e.Reset()
	r.request(qid, g, parent)
	fresh := r.e.tasks[taskKey{qid, g.lo, g.hi}]
	if fresh == nil || fresh == old || fresh.finished {
		t.Fatal("restart did not start a new task for the range")
	}

	// Past the instant the old task's retention ends, before the new
	// task's retry ladder does.
	r.advance(25 * time.Second)
	r.request(ids.HashString("bystander"), r.ranges[1], parent) // any request sweeps
	if r.e.tasks[fresh.key] != fresh {
		t.Fatal("the new task was removed when the old one's retention ran out")
	}
	for _, s := range r.subs(g) {
		r.answer(qid, s, rowsPred(100))
	}
	if !fresh.finished {
		t.Fatal("the new task did not take its children's responses")
	}
	r.advance(time.Second)
	if len(r.got) != 2 {
		t.Fatalf("parent got %d responses, want 2", len(r.got))
	}
	if got, want := r.got[1].was.Immediate, float64(100*len(r.subs(g))); got != want {
		t.Fatalf("second response carries %v rows, want %v", got, want)
	}
}

// TestFinishedAccFrozen checks that a finished task's predictor never
// changes: every response carries a pointer to the task's own acc, so a
// write — to it or to buckets it would allocate later — would change a
// message already sent. Held for a task that accumulated something and for
// one that finished with nothing to report.
func TestFinishedAccFrozen(t *testing.T) {
	r := newRig(t, 128, 11, rigConfig())
	for _, c := range []struct {
		name   string
		g      idRange
		finish func(qid ids.ID, g idRange) // after the first request
		empty  bool
	}{
		{name: "interior", g: r.ranges[0], finish: func(qid ids.ID, g idRange) {
			for _, s := range r.subs(g) {
				r.answer(qid, s, rowsPred(7))
			}
		}},
		{name: "empty leaf", g: r.empties[0], finish: func(ids.ID, idRange) {}, empty: true},
	} {
		qid := ids.HashString("frozen " + c.name)
		g, subs := c.g, r.subs(c.g)
		r.got = nil

		r.request(qid, g, 2)
		c.finish(qid, g)
		task := r.e.tasks[taskKey{qid, g.lo, g.hi}]
		if task == nil || !task.finished {
			t.Fatalf("%s: task did not finish", c.name)
		}
		acc, sent := &task.acc, value(&task.acc)
		if sent.Equal(&empty) != c.empty {
			t.Fatalf("%s: finished with predictor %+v", c.name, sent)
		}

		// Everything that can still reach a finished task.
		for _, s := range subs {
			r.answer(qid, s, rowsPred(1000)) // duplicates
		}
		r.request(qid, g, 2)                               // the parent's reissue
		r.request(qid, g, 3)                               // a new parent
		r.answer(qid, g, rowsPred(1000))                   // a response for the task's own range
		r.advance(30 * time.Second)                        // the cancelled timers' instants
		r.request(ids.HashString("other "+c.name), g, 2)   // another query over the range
		r.answer(qid, subs[0], rowsPred(1000))             // a late response
		r.advance(retention)                               // expiry
		r.request(ids.HashString("another "+c.name), g, 2) // a request that sweeps it out
		if r.e.tasks[task.key] != nil {
			t.Fatalf("%s: task outlived its retention", c.name)
		}

		if !task.acc.Equal(&sent) {
			t.Fatalf("%s: finished task's predictor was written to", c.name)
		}
		answers := 0
		for _, m := range r.got {
			if m.resp.QueryID != qid {
				continue
			}
			answers++
			if m.resp.Pred != acc {
				t.Fatalf("%s: response carries %p, not the task's own predictor %p", c.name, m.resp.Pred, acc)
			}
			if !m.was.Equal(&sent) {
				t.Fatalf("%s: response arrived with a different predictor than was sent", c.name)
			}
		}
		if answers != 4 { // the first answer, one to the reissue, one to each parent once there are two
			t.Fatalf("%s: %d responses for the query, want 4", c.name, answers)
		}
	}
}

// TestAllSubrangesPruned: a range whose every subrange the RTT scope
// prunes has nothing to wait for and finishes at once, like a leaf, with a
// predictor of its own to answer from. The protocol never asks for such a
// range (its parent would have pruned it: the ball test is exact), so the
// test plays the parent.
func TestAllSubrangesPruned(t *testing.T) {
	const n = 128
	r := newRig(t, n, 11, rigConfig())
	cfg := rigConfig()
	cfg.Coords = coords.NewSpace(r.host.node.Ring().Network(), coords.Enabled())
	cfg.Coords.SetIDs(r.ids)
	r.e = NewEngine(r.host, cfg)
	r.host.engine = r.e

	// An untrained space puts every endsystem 200 µs from every other: a
	// radius of 1 ns admits the injector, the top endpoint, and nobody else.
	q := *testQuery
	q.RTTScope = time.Nanosecond
	const injector = simnet.Endpoint(n - 1)
	above := r.ranges[0]                        // members, not the engine, not the injector
	around := idRange{r.ids[0], r.ranges[0].hi} // the engine too, itself out of scope
	for i, g := range []idRange{above, around} {
		qid := ids.HashString(fmt.Sprint("pruned", i))
		cfg.Coords.BeginScope(qid, injector, q.RTTScope)
		if r.e.aloneInRange(g.lo, g.hi) || cfg.Coords.RangeInScope(qid, g.lo, g.hi) {
			t.Fatalf("range %d is a leaf or holds the injector: it would not be pruned whole", i)
		}
		r.got = nil
		r.e.HandleMessage(2, &rangeMsg{QueryID: qid, Query: &q, Lo: g.lo, Hi: g.hi, Parent: 2, Injector: injector})
		task := r.e.tasks[taskKey{qid, g.lo, g.hi}]
		if task == nil || !task.finished || task.open != 0 {
			t.Fatalf("range %d: task did not finish at once", i)
		}
		if !task.acc.Equal(&empty) {
			t.Fatalf("range %d: predictor %+v, want its own, empty", i, task.acc)
		}
		if len(r.e.awaited) != 0 {
			t.Fatalf("range %d: %d subranges awaited", i, len(r.e.awaited))
		}
		r.advance(time.Second)
		if len(r.got) != 1 || r.got[0].to != 2 || r.got[0].resp.Pred != &task.acc {
			t.Fatalf("range %d: parent got %d responses", i, len(r.got))
		}
	}
}

// TestTaskTablesBounded is the leak regression: under a query stream the
// engine's tables hold the queries in flight or inside their retention
// (plus the one a lazy sweep has yet to let go), never the stream, and
// empty out once the stream stops.
func TestTaskTablesBounded(t *testing.T) {
	for _, period := range []time.Duration{30 * time.Second, 3 * time.Minute} {
		c := newCluster(t, 64, 31, DefaultConfig())
		c.sched.RunUntil(time.Minute)
		// A query's tasks finish within seconds here; they are then kept
		// for retention, and swept by the next query's first request.
		bound := int(retention/period) + 2
		const queries = 12
		held := 0
		for i := 0; i < queries; i++ {
			arrived := false
			c.hosts[i%4].engine.Inject(testQuery, 0, func(*predictor.Predictor) { arrived = true })
			for end := c.sched.Now() + period; c.sched.Now() < end; {
				c.sched.RunUntil(c.sched.Now() + time.Second)
				for _, h := range c.hosts {
					e := h.engine
					qids := map[ids.ID]bool{}
					for key := range e.tasks {
						qids[key.qid] = true
					}
					if len(qids) > bound {
						t.Fatalf("period %v: an engine holds tasks of %d queries, want at most %d", period, len(qids), bound)
					}
					if e.queued() > len(e.tasks) {
						t.Fatalf("period %v: %d tasks queued for expiry, %d in the table", period, e.queued(), len(e.tasks))
					}
				}
			}
			if !arrived {
				t.Fatalf("period %v: query %d: no predictor", period, i)
			}
			for _, h := range c.hosts {
				if len(h.engine.awaited) != 0 {
					t.Fatalf("period %v: query %d done, %d subranges still indexed", period, i, len(h.engine.awaited))
				}
				held += len(h.engine.tasks)
			}
		}
		if held == 0 {
			t.Fatal("no task was ever held")
		}
		c.sched.RunUntil(c.sched.Now() + retention)
		for _, h := range c.hosts {
			e := h.engine
			e.sweep(c.sched.Now())
			if len(e.tasks) != 0 || len(e.awaited) != 0 || e.retired != nil || e.retiredTail != nil {
				t.Fatalf("period %v: after the stream: %d tasks, %d indexed subranges, %d queued for expiry",
					period, len(e.tasks), len(e.awaited), e.queued())
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: what f allocates, by
// runtime.MemStats.TotalAlloc (size classes, not requests), averaged over
// runs calls after one to warm up.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRangeTaskAllocCeilings pins the allocations of the per-message
// paths: a leaf range task is the task and its response — 256 bytes,
// whether it has rows to report or not, for its predictor allocates buckets
// only for mass in them; a response that does not complete its task
// allocates nothing; one that does allocates the task's own response.
func TestRangeTaskAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	if size := unsafe.Sizeof(task{}); size > 192 {
		t.Errorf("task is %d bytes: past the 192-byte size class", size)
	}
	// Sixteen subranges fill splitRange's array in the 1,408-byte class.
	if size := unsafe.Sizeof(subrange{}); size > 88 {
		t.Errorf("subrange is %d bytes: sixteen are past the 1,408-byte size class", size)
	}
	r := newRig(t, 128, 11, rigConfig())
	r.record = false
	const runs = 100
	// The table is sized up front: its growth is not the path's cost.
	r.e.tasks = make(map[taskKey]*task, 8*runs)

	// Leaves, a new query each time. Letting the response arrive returns
	// its event to the scheduler's pool, so the count is the engine's
	// alone. The engine's own id as a one-point range reports its rows;
	// a gap between two members reports nothing.
	qid := ids.HashString("leaf")
	for _, c := range []struct {
		name  string
		g     idRange
		bytes uint64
	}{
		{"leaf with rows", r.own, 256},
		{"empty leaf", r.empties[0], 256},
	} {
		leaf := &rangeMsg{Query: testQuery, Lo: c.g.lo, Hi: c.g.hi, Parent: 2, Injector: 2}
		run := func() {
			qid.Lo++
			leaf.QueryID = qid
			r.e.HandleMessage(2, leaf)
			r.advance(50 * time.Millisecond)
		}
		if n := testing.AllocsPerRun(runs, run); n > 2 {
			t.Errorf("%s: %.1f allocations, want at most 2", c.name, n)
		}
		if n := bytesPerRun(runs, run); n > c.bytes {
			t.Errorf("%s: %d bytes, want at most %d (task and response)", c.name, n, c.bytes)
		} else {
			t.Logf("%s: %d bytes", c.name, n)
		}
	}

	// Interior tasks to answer: all but the last subrange of each, then
	// the last of each.
	g := r.ranges[0]
	subs := r.subs(g)
	each := len(subs) - 1
	tasks := (runs+1)/each + 1
	qids := make([]ids.ID, tasks)
	for i := range qids {
		qids[i] = ids.HashString(fmt.Sprint("interior", i))
		r.request(qids[i], g, 2)
	}
	// Rows available now: a child with mass in the delay buckets also
	// allocates the task's buckets, on the first such response.
	resp := &rangeResp{Pred: &predictor.Predictor{Immediate: 1}}
	i := 0
	perResp := testing.AllocsPerRun(runs, func() {
		s := subs[i%each]
		resp.QueryID, resp.Lo, resp.Hi = qids[i/each], s.lo, s.hi
		r.e.HandleMessage(1, resp)
		i++
	})
	if i != runs+1 || len(r.e.awaited) != tasks*len(subs)-i {
		t.Fatalf("answered %d subranges, %d still indexed of %d", i, len(r.e.awaited), tasks*len(subs))
	}
	if perResp != 0 {
		t.Errorf("response short of completing its task: %.1f allocations, want 0", perResp)
	}

	i = 0
	last := subs[each]
	perLast := testing.AllocsPerRun(tasks-2, func() {
		resp.QueryID, resp.Lo, resp.Hi = qids[i], last.lo, last.hi
		r.e.HandleMessage(1, resp)
		r.advance(50 * time.Millisecond)
		i++
	})
	if !r.e.tasks[taskKey{qids[0], g.lo, g.hi}].finished {
		t.Fatal("last response did not finish its task")
	}
	if perLast > 1 {
		t.Errorf("response completing its task: %.1f allocations, want at most 1", perLast)
	}
}
