package dissem

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// Tests of the engine's per-query state: the response lookup against the
// linear scan it replaced, the retention rule, the frozen predictor, and
// the allocation ceilings of the range-task path.

// scanAwaited is the response matching the engine used before it had an
// index, kept as the oracle: walk every task, skip the other queries' and
// the finished ones, and look through the subranges for matching bounds
// (derived, as the engine derives them). An answered or abandoned subrange
// resolves to nothing.
func scanAwaited(e *Engine, qid, lo, hi ids.ID) *subrange {
	for _, q := range e.queries {
		for _, t := range q.tasks {
			if t.key.qid != qid || t.finished {
				continue
			}
			for i := range t.fan.subs {
				s := &t.fan.subs[i]
				if slo, shi := s.bounds(); slo == lo && shi == hi {
					if s.done {
						return nil
					}
					return s
				}
			}
		}
	}
	return nil
}

// filed returns the engine's task for key, nil when it has none.
func filed(e *Engine, key taskKey) *task { return find(e.queries[key.qid].list(), key.lo, key.hi) }

// allTasks returns every task the engine has filed.
func allTasks(e *Engine) []*task {
	var out []*task
	for _, q := range e.queries {
		out = append(out, q.tasks...)
	}
	return out
}

// awaitedSubs counts the subranges the engine's unfinished tasks await.
func awaitedSubs(e *Engine) int {
	n := 0
	for _, tk := range allTasks(e) {
		if tk.fan != nil {
			n += int(tk.fan.open)
		}
	}
	return n
}

// checkIndex fails unless the table files every task once, under its
// query and its range, and the response lookup resolves exactly what the
// scan does: every subrange of every unfinished task to the same (task,
// subrange), and nothing else — not a task's own range, nor the first
// part of a subrange's own split, which lies inside the task's range and
// starts where the subrange does.
func checkIndex(t *testing.T, e *Engine) {
	t.Helper()
	for qid, q := range e.queries {
		if len(q.tasks) == 0 {
			t.Fatalf("query %v filed with no task", qid.Short())
		}
		probe := func(lo, hi ids.ID) {
			if got, want := awaiting(q.tasks, lo, hi), scanAwaited(e, qid, lo, hi); got != want {
				t.Fatalf("response for %v [%v, %v]: lookup resolves %p, scan %p", qid.Short(), lo, hi, got, want)
			}
		}
		for _, tk := range q.tasks {
			if tk.key.qid != qid || find(q.tasks, tk.key.lo, tk.key.hi) != tk {
				t.Fatalf("task %v filed under %v, or its range twice", tk.key, qid.Short())
			}
			probe(tk.key.lo, tk.key.hi)
			if tk.finished {
				continue
			}
			for i := range tk.fan.subs {
				lo, hi := tk.fan.subs[i].bounds()
				probe(lo, hi)
				probe(part(lo, hi, divByUint(hi.Sub(lo), uint64(e.cfg.Arity)), 0))
			}
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

// received is one response a sink was sent — the finished task itself —
// with its key and its predictor's value at the instant it arrived.
type received struct {
	from, to simnet.Endpoint
	resp     *task
	key      taskKey
	was      predictor.Predictor
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
// is sent; with the rig's echo set it also hands each to the rig's peer,
// as a parent's engine would be handed it. It swallows requests, so its
// subranges never answer by themselves, and recycles each as an engine
// does once it has consumed it.
type sink struct {
	rig *rig
	ep  simnet.Endpoint
}

func (s *sink) LeafsetChanged() {}
func (s *sink) Deliver(_ ids.ID, from simnet.Endpoint, payload any) {
	switch m := payload.(type) {
	case *task:
		if s.rig.record {
			s.rig.got = append(s.rig.got, received{from: from, to: s.ep, resp: m, key: m.key, was: value(&m.acc)})
		}
		if s.rig.echo {
			s.rig.peer.HandleMessage(from, m)
		}
	case *rangeMsg:
		m.recycle()
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
// alone, which contributes the host's ten rows. peer is an engine on
// endpoint 1 with nothing filed: handing it a response is that response's
// delivery, which is what lets its task be reused.
type rig struct {
	sched   *simnet.Wheel
	host    *rigHost
	e       *Engine
	peer    *Engine
	ids     []ids.ID // endpoint i sits on ids[i]; ascending
	ranges  []idRange
	empties []idRange
	own     idRange
	got     []received
	record  bool
	echo    bool   // the sinks hand every response to peer as it arrives
	causes  uint64 // the span the last response the test played carried
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

func newRig(t testing.TB, n int, seed int64, cfg Config) *rig {
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
		node := ring.AddNode(simnet.Endpoint(i), sorted[i], &sink{rig: r, ep: simnet.Endpoint(i)})
		if i == 1 {
			r.peer = NewEngine(&rigHost{node: node}, cfg)
		}
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
	r.e.HandleMessage(parent, &rangeMsg{Hdr: &queryHdr{QueryID: qid, Query: testQuery, Injector: parent},
		Lo: g.lo, Hi: g.hi, Parent: parent})
}

// answer plays a child's response for subrange s: a finished task of its
// own, whose span is new each time.
func (r *rig) answer(qid ids.ID, s idRange, p *predictor.Predictor) {
	r.causes++
	r.e.HandleMessage(1, &task{key: taskKey{qid, s.lo, s.hi}, acc: *p, finished: true, respCause: r.causes})
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

// near is a range that starts just above the engine, the lowest member,
// and is twice as wide as the gap to the next member, so it is no leaf.
// Its first subrange holds no member and its midpoint is the engine's
// own, so the engine answers it in place; the next holds that member, and
// every other is nearer it or a member above than the engine: each of
// those is routed to a sink.
func (r *rig) near() idRange {
	lo := r.ids[0].AddUint64(1)
	gap := r.ids[1].Sub(lo)
	return idRange{lo, lo.Add(gap).Add(gap)}
}

// rangeMsgs is the engine's dissem_range_msgs.
func (r *rig) rangeMsgs() uint64 { return r.e.cRangeMsgs.Value() }

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
// a predictor by value in every task, rendered once per response. A reset
// drops the unfinished tasks of the earlier incarnation, after the
// abandonments already due: their retry ladders stop at the next timeout,
// as the engine's do, so they never answer.
type refEngine struct {
	arity     int
	leafRows  func(idRange) (float64, bool)
	patience  time.Duration // from a request to the abandonment of what it did not hear
	tasks     map[taskKey]*refTask
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

func (r *refEngine) reset(now time.Duration) {
	r.advance(now)
	r.tasks = make(map[taskKey]*refTask)
}

// TestIndexAgainstLinearScan drives one engine and the reference through
// the same seeded random sequences of requests, responses, duplicates,
// reissues from new parents, abandonments and restarts — over interior
// ranges and leaves, with children and leaves that have something to
// report and ones that have nothing (the empty predictor). After every
// step the index must resolve what the scan resolves; at the end the
// parents must have been sent the same predictors. Two in three of the
// engine's responses are delivered, each at a random later step, so that
// swept tasks are reused inside the run: each must arrive as it was sent,
// up to its delivery, and the rest up to the end.
func TestIndexAgainstLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := rigConfig()
		cfg.DisableBackoff = true // fixed timeouts: the reference can tell when a subrange is abandoned
		r := newRig(t, 128, 11, cfg)
		ref := &refEngine{arity: cfg.Arity, tasks: make(map[taskKey]*refTask), leafRows: r.leafRows,
			patience: (maxRetries + 1) * responseTimeout}
		leaves := append([]idRange{r.own}, r.empties...)
		emptySent, emptyResponses := 0, 0
		rng := rand.New(rand.NewSource(seed))
		qids := ids.RandomN(rng, 3)
		parents := []simnet.Endpoint{2, 3, 5}
		var lastQ ids.ID
		var lastS idRange
		var lastP *predictor.Predictor
		var held []int // the responses in r.got to deliver, by index
		seen, delivered := 0, make([]bool, 0, 1024)
		unchanged := func(m received) bool { return m.resp.key == m.key && m.resp.acc.Equal(&m.was) }
		for step := 0; step < 3000; step++ {
			for ; seen < len(r.got); seen++ {
				delivered = append(delivered, false)
				if rng.Intn(3) > 0 {
					held = append(held, seen)
				}
			}
			if len(held) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(held))
				m := r.got[held[k]]
				if !unchanged(m) {
					t.Fatalf("seed %d: response for %v changed before it was delivered", seed, m.key)
				}
				r.peer.HandleMessage(m.from, m.resp)
				delivered[held[k]] = true
				held = slices.Delete(held, k, k+1)
			}
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
				ref.reset(now)
			}
			checkIndex(t, r.e)
		}
		r.advance(10 * time.Minute)
		ref.advance(r.sched.Now())
		checkIndex(t, r.e)

		for _, tk := range allTasks(r.e) {
			if tk.parent == r.host.node.Endpoint() {
				t.Fatalf("seed %d: task %v was requested by the engine itself; the rig's ranges must not route back", seed, tk.key)
			}
		}
		var got []string
		keys := make(map[*task]taskKey)
		reused := 0
		for i, m := range r.got {
			got = append(got, sentString(m.to, m.key, &m.was))
			if (i >= len(delivered) || !delivered[i]) && !unchanged(m) {
				t.Fatalf("seed %d: response for %v changed after it was sent, undelivered", seed, m.key)
			}
			if m.was.Equal(&empty) {
				emptyResponses++
			}
			if k, ok := keys[m.resp]; ok && k != m.key {
				reused++
			}
			keys[m.resp] = m.key
		}
		t.Logf("seed %d: %d responses, %d of them delivered; %d sent from a reused task",
			seed, len(r.got), len(slices.DeleteFunc(delivered, func(d bool) bool { return !d })), reused)
		if reused == 0 {
			t.Fatalf("seed %d: no task was reused", seed)
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
	old := filed(r.e, taskKey{qid, g.lo, g.hi})
	if old == nil || !old.finished {
		t.Fatal("first task did not finish")
	}

	r.advance(retention - 20*time.Second)
	r.e.Reset()
	r.request(qid, g, parent)
	fresh := filed(r.e, taskKey{qid, g.lo, g.hi})
	if fresh == nil || fresh == old || fresh.finished {
		t.Fatal("restart did not start a new task for the range")
	}

	// Past the instant the old task's retention ends, before the new
	// task's retry ladder does.
	r.advance(25 * time.Second)
	r.request(ids.HashString("bystander"), r.ranges[1], parent) // any request sweeps
	if filed(r.e, fresh.key) != fresh {
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

// TestFinishedTaskLeavesAtNextMessage: a finished task leaves the table at
// the first message the endsystem receives once its retention has run out,
// whatever the message is — here one for another layer — and not before.
// No range request has to come along.
func TestFinishedTaskLeavesAtNextMessage(t *testing.T) {
	r := newRig(t, 128, 11, rigConfig())
	qid := ids.HashString("next message")
	g := r.empties[0]
	r.request(qid, g, 2)
	key := taskKey{qid, g.lo, g.hi}
	if tk := filed(r.e, key); tk == nil || !tk.finished {
		t.Fatal("the leaf task did not finish")
	}
	type otherLayer struct{}
	r.advance(retention - time.Second)
	if r.e.HandleMessage(2, &otherLayer{}) {
		t.Fatal("the engine claimed another layer's message")
	}
	if filed(r.e, key) == nil {
		t.Fatal("the task left before its retention ran out")
	}
	r.advance(time.Second)
	if filed(r.e, key) == nil {
		t.Fatal("the task left without a message")
	}
	r.e.HandleMessage(2, &otherLayer{})
	if len(r.e.queries) != 0 || r.e.retired != nil || r.e.retiredTail != nil {
		t.Fatalf("after the first message past its retention: %d tasks, %d queued for expiry", len(allTasks(r.e)), r.e.queued())
	}
}

// TestFinishedAccFrozen checks that what a finished task's response is
// read for never changes: every response is the task itself, so a write to
// its key, its respCause or its acc — or to buckets acc would allocate
// later — would change a message already sent. It also checks that the
// task let go of its fan-out. Held for a task that accumulated something
// and for one that finished with nothing to report.
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
		task := filed(r.e, taskKey{qid, g.lo, g.hi})
		if task == nil || !task.finished {
			t.Fatalf("%s: task did not finish", c.name)
		}
		sent, key, cause := value(&task.acc), task.key, task.respCause
		if sent.Equal(&empty) != c.empty {
			t.Fatalf("%s: finished with predictor %+v", c.name, sent)
		}
		if task.fan != nil {
			t.Fatalf("%s: finished task kept its fan-out", c.name)
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
		if filed(r.e, task.key) != nil {
			t.Fatalf("%s: task outlived its retention", c.name)
		}

		if !task.acc.Equal(&sent) {
			t.Fatalf("%s: finished task's predictor was written to", c.name)
		}
		if task.key != key || task.respCause != cause {
			t.Fatalf("%s: finished task's key or respCause moved", c.name)
		}
		answers := 0
		for _, m := range r.got {
			if m.resp.key.qid != qid {
				continue
			}
			answers++
			if m.resp != task {
				t.Fatalf("%s: response is %p, not the task %p", c.name, m.resp, task)
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

// fates is a fault hook that gives the query-class sends of the rig's
// engine (endpoint 0) to an endpoint the fates queued for it, in order,
// and every other message none.
type fates map[simnet.Endpoint][]simnet.Fate

func (f fates) OnSend(from, to simnet.Endpoint, _, _ int, class simnet.Class) simnet.Fate {
	q := f[to]
	if from != 0 || class != simnet.ClassQuery || len(q) == 0 {
		return simnet.Fate{}
	}
	f[to] = q[1:]
	return q[0]
}

// TestTaskReuseWaitsForDelivery: a swept task is reused only once every
// response sent from it has been delivered. Each case runs a leaf task of
// a new query that parent 2 requests once a second, as often as the case
// gives fates for the responses, on a drained engine. Another query's
// leaf, requested after, is still retained when the task's retention runs
// out, so the sweep then does not drain the engine. The task must be on
// the spare list after that sweep, and be the next task, exactly when
// every response has been delivered; and every response must arrive as
// the task was when it was sent. A lost response keeps its task from reuse
// for good, one delayed past the retention until after the sweep, which
// then lets go of it; the duplication fault's copy is not a second
// delivery, so a duplicate cannot stand in for a response still in flight.
// Then, on a live cluster: the root's task, whose predictor the injector
// was handed, is never reused, while the other tasks of its query are.
func TestTaskReuseWaitsForDelivery(t *testing.T) {
	r := newRig(t, 128, 11, rigConfig())
	r.echo = true
	hook := fates{}
	r.host.node.Ring().Network().SetFaultHook(hook)
	type otherLayer struct{}
	g := r.empties[0]
	late := simnet.Fate{ExtraDelay: retention + time.Minute}
	for i, c := range []struct {
		name   string
		fates  []simnet.Fate // of the responses, one a request
		reused bool
	}{
		{"delivered", []simnet.Fate{{}}, true},
		{"duplicated", []simnet.Fate{{Duplicate: true}}, true},
		{"dropped", []simnet.Fate{{Drop: true}}, false},
		{"dropped, then answered again", []simnet.Fate{{Drop: true}, {}}, false},
		{"delayed past retention", []simnet.Fate{late}, false},
		{"delayed past retention, then answered again and duplicated", []simnet.Fate{late, {Duplicate: true}}, false},
	} {
		r.advance(3 * retention)
		r.e.HandleMessage(2, &otherLayer{})
		if len(r.e.queries) != 0 {
			t.Fatalf("%s: the engine did not drain before the case", c.name)
		}
		r.got = nil
		qid := ids.HashString(fmt.Sprint("reuse ", i))
		arrivals := 0
		var tk *task
		for _, f := range c.fates {
			hook[2] = append(hook[2], f)
			r.request(qid, g, 2)
			if tk == nil {
				tk = filed(r.e, taskKey{qid, g.lo, g.hi})
			}
			if !f.Drop {
				arrivals++
			}
			if f.Duplicate {
				arrivals++
			}
			r.advance(time.Second)
		}
		key, sent := tk.key, value(&tk.acc)
		r.request(ids.HashString(fmt.Sprint("anchor ", i)), r.empties[1], 4)
		r.sched.RunUntil(tk.expires)
		r.e.HandleMessage(2, &otherLayer{})
		if filed(r.e, key) != nil || len(r.e.queries) == 0 {
			t.Fatalf("%s: the task was not swept, or the engine drained", c.name)
		}
		if tk.spare != c.reused {
			t.Errorf("%s: on the spare list after its sweep: %v, want %v", c.name, tk.spare, c.reused)
		}
		next := ids.HashString(fmt.Sprint("next ", i))
		r.request(next, g, 5)
		if got := filed(r.e, taskKey{next, g.lo, g.hi}) == tk; got != c.reused {
			t.Errorf("%s: the next task is the swept one: %v, want %v", c.name, got, c.reused)
		}
		r.advance(2 * retention) // every delayed response arrives
		for _, m := range r.got {
			if m.to != 2 {
				continue
			}
			arrivals--
			if m.resp != tk || m.key != key || !m.was.Equal(&sent) {
				t.Errorf("%s: a response arrived as %v, sent as %v", c.name, m.key, key)
			}
		}
		if arrivals != 0 {
			t.Errorf("%s: %d responses more were sent than arrived", c.name, arrivals)
		}
	}

	cl := newCluster(t, 64, 51, DefaultConfig())
	cl.sched.RunUntil(time.Minute)
	var final *predictor.Predictor
	first := cl.hosts[0].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { final = p })
	cl.sched.RunUntil(cl.sched.Now() + time.Minute)
	if final == nil {
		t.Fatal("the first query's predictor did not arrive")
	}
	want := value(final)
	var root *task
	var tasks []*task
	for _, h := range cl.hosts {
		for _, tk := range allTasks(h.engine) {
			if tk.key.qid == first {
				tasks = append(tasks, tk)
				if tk.key.whole() {
					root = tk
				}
			}
		}
	}
	// A second query keeps the engines from draining when the first one's
	// tasks are swept, and a third takes them.
	cl.hosts[1].engine.Inject(testQuery, 0, nil)
	cl.sched.RunUntil(cl.sched.Now() + 90*time.Second)
	third := cl.hosts[2].engine.Inject(testQuery, 0, nil)
	cl.sched.RunUntil(cl.sched.Now() + 30*time.Second)
	reused := 0
	for _, tk := range tasks {
		if tk.key.qid == third {
			reused++
		}
	}
	t.Logf("the third query reused %d of the first one's %d tasks", reused, len(tasks))
	if reused == 0 {
		t.Error("no task of the first query was reused")
	}
	if root == nil || root.spare || root.key.qid != first || !final.Equal(&want) {
		t.Error("the root's task was reused, or the predictor the injector was handed changed")
	}
}

// TestSpareTaskUsePanics: a task on the spare list is poisoned. Handing
// it to an engine as a response, folding it in as a local child's or
// answering a parent from it panics, whatever else it holds.
func TestSpareTaskUsePanics(t *testing.T) {
	r := newRig(t, 128, 11, rigConfig())
	spare := &task{spare: true, finished: true, parent: 2}
	for _, c := range []struct {
		name string
		use  func()
	}{
		{"delivered", func() { r.e.HandleMessage(2, spare) }},
		{"folded in", func() { r.e.handleResp(spare) }},
		{"answered from", func() { r.e.respond(spare) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a spare task was used without a panic", c.name)
				}
			}()
			c.use()
		}()
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
	sp := coords.NewSpace(r.host.node.Ring().Network(), coords.Enabled())
	sp.SetIDs(r.ids)
	r.host.node.Ring().SetCoords(sp)

	// An untrained space puts every endsystem 200 µs from every other: a
	// radius of 1 ns admits the injector, the top endpoint, and nobody else.
	q := testQuery.Clone()
	q.RTTScope = time.Nanosecond
	const injector = simnet.Endpoint(n - 1)
	above := r.ranges[0]                        // members, not the engine, not the injector
	around := idRange{r.ids[0], r.ranges[0].hi} // the engine too, itself out of scope
	for i, g := range []idRange{above, around} {
		qid := ids.HashString(fmt.Sprint("pruned", i))
		sp.BeginScope(qid, injector, q.RTTScope)
		if r.e.aloneInRange(g.lo, g.hi) || sp.RangeInScope(qid, g.lo, g.hi) {
			t.Fatalf("range %d is a leaf or holds the injector: it would not be pruned whole", i)
		}
		r.got = nil
		r.e.HandleMessage(2, &rangeMsg{Hdr: &queryHdr{QueryID: qid, Query: q, Injector: injector},
			Lo: g.lo, Hi: g.hi, Parent: 2})
		task := filed(r.e, taskKey{qid, g.lo, g.hi})
		if task == nil || !task.finished || task.fan != nil {
			t.Fatalf("range %d: task did not finish at once", i)
		}
		if !task.acc.Equal(&empty) {
			t.Fatalf("range %d: predictor %+v, want its own, empty", i, task.acc)
		}
		if n := awaitedSubs(r.e); n != 0 {
			t.Fatalf("range %d: %d subranges awaited", i, n)
		}
		r.advance(time.Second)
		if len(r.got) != 1 || r.got[0].to != 2 || r.got[0].resp != task {
			t.Fatalf("range %d: parent got %d responses", i, len(r.got))
		}
	}
}

// TestAloneInRangeMatchesScan holds aloneInRange's binary search to a
// scan of the leafset, on ranges that start, end or stop one short of
// members, and on ones that wrap no member at all.
func TestAloneInRangeMatchesScan(t *testing.T) {
	r := newRig(t, 64, 11, rigConfig())
	leaf := r.host.node.LeafsetView()
	var edges []ids.ID
	for _, m := range leaf {
		edges = append(edges, m.ID, m.ID.AddUint64(1), m.ID.Sub(ids.ID{Lo: 1}))
	}
	edges = append(edges, ids.ID{}, ids.MaxID, r.ids[0], r.ids[len(r.ids)/2])
	for _, lo := range edges {
		for _, hi := range edges {
			if hi.Less(lo) {
				continue
			}
			want := true
			for _, m := range leaf {
				want = want && !m.ID.InRange(lo, hi)
			}
			if got := r.e.aloneInRange(lo, hi); got != want {
				t.Fatalf("[%v, %v]: alone %v, the scan says %v", lo, hi, got, want)
			}
		}
	}
}

// TestSynchronousAnswersFinishOnce: when this endsystem lies in none of a
// range's subranges and every one is answered synchronously — in place, or
// by a request that comes straight back to a task filed for it — the last
// answer finishes the task, and hands its fan-out to the spare list,
// before beginTask's loop returns. The task must be answered once, its
// fan-out not mistaken for an empty one afterwards.
//
// The range is the rig's near one: its first subrange holds no member, so
// its midpoint is the engine's own. The RTT scope admits only that
// subrange: the injector is placed inside it in the coordinate space's id
// list, and everybody else is out of a 1 ns radius.
func TestSynchronousAnswersFinishOnce(t *testing.T) {
	const n = 128
	r := newRig(t, n, 11, rigConfig())
	g := r.near()
	if r.e.aloneInRange(g.lo, g.hi) {
		t.Fatal("the range is a leaf")
	}
	const injector = simnet.Endpoint(n - 1)
	placed := slices.Clone(r.ids)
	placed[injector] = g.lo
	sp := coords.NewSpace(r.host.node.Ring().Network(), coords.Enabled())
	sp.SetIDs(placed)
	r.host.node.Ring().SetCoords(sp)
	q := testQuery.Clone()
	q.RTTScope = time.Nanosecond
	first, self := r.subs(g)[0], r.host.node.Endpoint()

	for _, c := range []struct {
		name  string
		filed bool // a task for the first subrange is filed before the request
		sent  uint64
	}{
		{"answered in place", false, 0},
		{"routed back to a filed task", true, 1},
	} {
		qid := ids.HashString("synchronous " + c.name)
		sp.BeginScope(qid, injector, q.RTTScope)
		hdr := &queryHdr{QueryID: qid, Query: q, Injector: injector}
		if c.filed {
			// The engine asks itself, as a parent whose reissue found it
			// would: the leaf finishes at once and its answer finds no one.
			r.e.HandleMessage(self, hdr.rangeMsg(first.lo, first.hi, self, 0))
		}
		queued, sent := r.e.queued(), r.rangeMsgs()
		r.got = nil
		r.e.HandleMessage(2, hdr.rangeMsg(g.lo, g.hi, 2, 0))
		task := filed(r.e, taskKey{qid, g.lo, g.hi})
		if task == nil || !task.finished {
			t.Fatalf("%s: the task did not finish inside beginTask", c.name)
		}
		if r.e.spare == nil || r.e.spare.next != nil {
			t.Fatalf("%s: the finished task's fan-out is not the one spare", c.name)
		}
		if got := r.rangeMsgs() - sent; got != c.sent {
			t.Errorf("%s: %d requests sent, want %d", c.name, got, c.sent)
		}
		r.advance(time.Second)
		if len(r.got) != 1 || r.got[0].resp != task {
			t.Fatalf("%s: the parent got %d responses, want 1", c.name, len(r.got))
		}
		if got := r.e.queued() - queued; got != 1 { // the task, once
			t.Fatalf("%s: %d tasks queued for expiry, want 1", c.name, got)
		}
		r.advance(retention)
		r.e.sweep(r.sched.Now())
	}
}

// TestFiledSubrangeStillRouted is the retention case of answering in
// place: a subrange the engine would answer in place is requested as
// usual when a task for it is already filed there, so that task — frozen,
// finished — answers it and re-answers every parent it has, as a reissue
// from a new parent would make it. Without the filed task, the same
// subrange is answered in place and not requested.
func TestFiledSubrangeStillRouted(t *testing.T) {
	r := newRig(t, 128, 11, rigConfig())
	g := r.near()
	subs := r.subs(g)
	first, self := subs[0], r.host.node.Endpoint()
	for _, filedFirst := range []bool{false, true} {
		qid := ids.HashString(fmt.Sprint("retained ", filedFirst))
		var leaf *task
		if filedFirst {
			r.request(qid, first, 3) // a parent elsewhere asked first
			if leaf = filed(r.e, taskKey{qid, first.lo, first.hi}); leaf == nil || !leaf.finished {
				t.Fatal("the first subrange's task did not finish")
			}
		}
		r.got = nil
		sent := r.rangeMsgs()
		r.request(qid, g, 2)
		want := uint64(len(subs) - 1)
		if filedFirst {
			want++
		}
		if got := r.rangeMsgs() - sent; got != want {
			t.Fatalf("filed=%v: %d of %d subranges requested, want %d", filedFirst, got, len(subs), want)
		}
		if awaiting(r.e.queries[qid].list(), first.lo, first.hi) != nil {
			t.Fatalf("filed=%v: the first subrange is still awaited", filedFirst)
		}
		for _, s := range subs[1:] {
			r.answer(qid, s, rowsPred(5))
		}
		r.advance(time.Second)
		task := filed(r.e, taskKey{qid, g.lo, g.hi})
		if task == nil || !task.finished {
			t.Fatalf("filed=%v: the task did not finish", filedFirst)
		}
		want5 := value(rowsPred(5 * float64(len(subs)-1)))
		if !task.acc.Equal(&want5) {
			t.Fatalf("filed=%v: the task's predictor is not its children's", filedFirst)
		}
		toParent, toElsewhere := 0, 0
		for _, m := range r.got {
			switch {
			case m.resp == task && m.to == 2:
				toParent++
			case filedFirst && m.resp == leaf && m.to == 3:
				toElsewhere++
			default:
				t.Fatalf("filed=%v: unexpected response to %d for [%v, %v]", filedFirst, m.to, m.resp.key.lo, m.resp.key.hi)
			}
		}
		// The filed task answered its first parent when it finished and
		// again when the engine's request made the engine its second.
		if toParent != 1 || filedFirst && (toElsewhere != 2 || leaf.more == nil || leaf.more.ep != self) {
			t.Fatalf("filed=%v: %d answers to the parent, %d to the filed task's first parent", filedFirst, toParent, toElsewhere)
		}
	}
}

// TestTaskTablesBounded is the leak regression: under a query stream the
// engine's tables hold the queries in flight or inside their retention
// (plus the one a lazy sweep has yet to let go), never the stream, and
// empty out once the stream stops — the spare fan-outs with them.
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
					if len(e.queries) > bound {
						t.Fatalf("period %v: an engine holds tasks of %d queries, want at most %d", period, len(e.queries), bound)
					}
					if e.queued() > len(allTasks(e)) {
						t.Fatalf("period %v: %d tasks queued for expiry, %d in the table", period, e.queued(), len(allTasks(e)))
					}
				}
			}
			if !arrived {
				t.Fatalf("period %v: query %d: no predictor", period, i)
			}
			for _, h := range c.hosts {
				if n := awaitedSubs(h.engine); n != 0 {
					t.Fatalf("period %v: query %d done, %d subranges still awaited", period, i, n)
				}
				held += len(allTasks(h.engine))
			}
		}
		if held == 0 {
			t.Fatal("no task was ever held")
		}
		c.sched.RunUntil(c.sched.Now() + retention)
		for _, h := range c.hosts {
			e := h.engine
			e.sweep(c.sched.Now())
			if len(e.queries) != 0 || e.retired != nil || e.retiredTail != nil {
				t.Fatalf("period %v: after the stream: %d tasks, %d queued for expiry",
					period, len(allTasks(e)), e.queued())
			}
			if e.spare != nil || e.spareQueries != nil {
				t.Fatalf("period %v: after the stream: a drained engine holds a spare fan-out or entry", period)
			}
		}
	}
}

// drainedHeapCeiling is about 10% above what
// TestDrainedEngineGivesBackTables measured when it was set: 565-567 bytes
// per engine on go1.24 linux/amd64 (it reads 422-503 now, and did before
// range tasks were reused). 256 of them are the empty per-query table, its
// header and the one 8-slot group that a few queries at a time need; the
// rest is, by a heap profile, Pastry's pooled route envelopes and what
// its routing state learnt from the queries' traffic. It read 6,795-6,875
// while an engine filed its tasks and awaited subranges in two maps keyed
// by (queryId, lo, hi), which kept their peak storage once drained, and
// 311 when a drained engine also let go of the empty table (which cost
// steady2k, whose engines drain between queries, 2 MB of allocation).
const drainedHeapCeiling = 620

// TestDrainedEngineGivesBackTables: an engine none of whose queries is in
// flight or inside its retention holds no dissemination state, and no
// storage beyond its empty table, sized to queries, not tasks. 64
// endsystems run 40 queries 30 s apart, past the last task's retention,
// and each engine is then handed one more message, which sweeps. Every
// per-query table and spare list is then empty, and the cluster's live
// heap exceeds a quiet twin's — the same cluster, run to the same instant
// without queries — by at most drainedHeapCeiling per engine.
func TestDrainedEngineGivesBackTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations count toward HeapAlloc")
	}
	const n, queries, spacing = 64, 40, 30 * time.Second
	end := time.Minute + queries*spacing + retention + time.Minute
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	type otherLayer struct{}
	grows := func(withQueries bool) int64 {
		before := liveHeap()
		c := newCluster(t, n, 41, DefaultConfig())
		c.sched.RunUntil(time.Minute)
		arrived := 0
		for i := 0; i < queries; i++ {
			if withQueries {
				c.hosts[i%4].engine.Inject(testQuery, 0, func(*predictor.Predictor) { arrived++ })
			}
			c.sched.RunUntil(c.sched.Now() + spacing)
		}
		c.sched.RunUntil(end)
		if withQueries && arrived != queries {
			t.Fatalf("%d of %d predictors arrived", arrived, queries)
		}
		for i, h := range c.hosts {
			e := h.engine
			e.HandleMessage(0, &otherLayer{})
			if len(e.queries) != 0 || e.retired != nil || e.spare != nil || e.spareQueries != nil {
				t.Fatalf("engine %d: %d tasks of %d queries filed, %d queued for expiry, spares %v/%v",
					i, len(allTasks(e)), len(e.queries), e.queued(), e.spare != nil, e.spareQueries != nil)
			}
		}
		grown := liveHeap() - before
		runtime.KeepAlive(c)
		return grown
	}
	quiet := grows(false)
	busy := grows(true)
	per := (busy - quiet) / n
	t.Logf("a drained engine holds %d bytes more than a quiet one (the cluster grew %d KB quiet, %d KB with %d queries)",
		per, quiet>>10, busy>>10, queries)
	if per > drainedHeapCeiling {
		t.Errorf("a drained engine holds %d bytes more than a quiet one, ceiling %d", per, drainedHeapCeiling)
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
// paths. A range task is one object of the 128-byte class, which is also
// its response, whether it has rows to report or not, for its predictor
// allocates buckets only for mass in them; once its responses are
// delivered and its retention is over, it is the next task's. So once
// warm a leaf range task allocates nothing: its task a swept one, its
// query's entry in the table a swept query's. Nor does an interior one:
// its fan-out is a finished task's and its requests consumed ones of its
// query, and a subrange it answers in place adds nothing. A response
// allocates nothing, whether or not it completes its task.
func TestRangeTaskAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	if size := unsafe.Sizeof(task{}); size > 128 {
		t.Errorf("task is %d bytes: past the 128-byte size class", size)
	}
	r := newRig(t, 128, 11, rigConfig())
	r.record, r.echo = false, true
	const runs = 100
	// Each run is a new query, step after the one before, so a run's sweep
	// lets go of the query filed four runs before: four queries are filed
	// at a time, and the new one takes the swept one's entry and tasks.
	// Each case measures once warm.
	const step = retention / 4
	warm := func(run func()) {
		for range 8 {
			run()
		}
	}

	// Leaves. Letting the response arrive delivers it, and returns its
	// event to the scheduler's pool, so the count is the engine's alone.
	// The engine's own id as a one-point range reports its rows; a gap
	// between two members reports nothing.
	qid := ids.HashString("leaf")
	for _, c := range []struct {
		name string
		g    idRange
	}{
		{"leaf with rows", r.own},
		{"empty leaf", r.empties[0]},
	} {
		// Each run's request is the one the run before consumed.
		hdr := &queryHdr{Query: testQuery, Injector: 2}
		run := func() {
			qid.Lo++
			hdr.QueryID = qid
			r.e.HandleMessage(2, hdr.rangeMsg(c.g.lo, c.g.hi, 2, 0))
			r.advance(step)
		}
		warm(run)
		if n := testing.AllocsPerRun(runs, run); n != 0 {
			t.Errorf("%s: %.1f allocations, want 0", c.name, n)
		}
		if n := bytesPerRun(runs, run); n != 0 {
			t.Errorf("%s: %d bytes, want 0 (the task, response included, a swept one)", c.name, n)
		}
	}

	// Interior tasks, a new query each time, every subrange answered once
	// the sinks have consumed its request. The response timers the answers
	// cancel leave the wheel at their instant, so each run waits them out:
	// their events go back to the scheduler's pool.
	g := r.ranges[0]
	subs := r.subs(g)
	hdr := &queryHdr{Query: testQuery, Injector: 2}
	answer := &task{finished: true}
	interior := func() {
		qid.Lo++
		hdr.QueryID = qid
		r.e.HandleMessage(2, hdr.rangeMsg(g.lo, g.hi, 2, 0))
		r.advance(time.Second)
		for _, s := range subs {
			answer.key = taskKey{qid, s.lo, s.hi}
			r.e.HandleMessage(1, answer)
		}
		r.advance(step - time.Second)
	}
	warm(interior)
	if n := testing.AllocsPerRun(runs, interior); n != 0 {
		t.Errorf("interior: %.1f allocations, want 0", n)
	}
	if n := bytesPerRun(runs, interior); n != 0 {
		t.Errorf("interior: %d bytes, want 0 (task, fan-out and requests reused)", n)
	}
	if tk := filed(r.e, taskKey{qid, g.lo, g.hi}); tk == nil || !tk.finished {
		t.Fatal("the last interior task did not finish")
	}

	// An interior task whose first subrange is empty and its own to root
	// answers that one in place: no request, child task, timer or response
	// for it, so it allocates nothing either.
	near := r.near()
	nearSubs := r.subs(near)
	inPlace := func() {
		qid.Lo++
		hdr.QueryID = qid
		r.e.HandleMessage(2, hdr.rangeMsg(near.lo, near.hi, 2, 0))
		r.advance(time.Second)
		for _, s := range nearSubs[1:] {
			answer.key = taskKey{qid, s.lo, s.hi}
			r.e.HandleMessage(1, answer)
		}
		r.advance(step - time.Second)
	}
	warm(inPlace)
	sent := r.rangeMsgs()
	if n := testing.AllocsPerRun(runs, inPlace); n != 0 {
		t.Errorf("interior, empty subrange rooted here: %.1f allocations, want 0", n)
	}
	if per := (r.rangeMsgs() - sent) / (runs + 1); per != uint64(len(nearSubs)-1) {
		t.Errorf("interior, empty subrange rooted here: %d requests a task, want %d", per, len(nearSubs)-1)
	}
	if n := bytesPerRun(runs, inPlace); n != 0 {
		t.Errorf("interior, empty subrange rooted here: %d bytes, want 0", n)
	}
	if tk := filed(r.e, taskKey{qid, near.lo, near.hi}); tk == nil || !tk.finished {
		t.Fatal("the last interior task with a subrange answered in place did not finish")
	}

	// Interior tasks to answer: all but the last subrange of each, then
	// the last of each.
	each := len(subs) - 1
	tasks := (runs+1)/each + 1
	qids := make([]ids.ID, tasks)
	for i := range qids {
		qids[i] = ids.HashString(fmt.Sprint("interior", i))
		r.request(qids[i], g, 2)
	}
	// Rows available now: a child with mass in the delay buckets also
	// allocates the task's buckets, on the first such response.
	resp := &task{acc: predictor.Predictor{Immediate: 1}, finished: true}
	i := 0
	perResp := testing.AllocsPerRun(runs, func() {
		s := subs[i%each]
		resp.key = taskKey{qids[i/each], s.lo, s.hi}
		r.e.HandleMessage(1, resp)
		i++
	})
	if i != runs+1 || awaitedSubs(r.e) != tasks*len(subs)-i {
		t.Fatalf("answered %d subranges, %d still awaited of %d", i, awaitedSubs(r.e), tasks*len(subs))
	}
	if perResp != 0 {
		t.Errorf("response short of completing its task: %.1f allocations, want 0", perResp)
	}

	i = 0
	last := subs[each]
	perLast := testing.AllocsPerRun(tasks-2, func() {
		resp.key = taskKey{qids[i], last.lo, last.hi}
		r.e.HandleMessage(1, resp)
		r.advance(50 * time.Millisecond)
		i++
	})
	if !filed(r.e, taskKey{qids[0], g.lo, g.hi}).finished {
		t.Fatal("last response did not finish its task")
	}
	if perLast != 0 {
		t.Errorf("response completing its task: %.1f allocations, want 0", perLast)
	}
}

// BenchmarkRangeTaskPath is the cost of one interior range task on the
// rig, a new query's: its request, the answers to its subranges, and its
// sweep at the first message after its retention, with inflight queries'
// tasks filed at a time, its own included. At inflight=1 each task finds
// the engine drained. The virtual time between two tasks, which runs the
// ring and lets the oldest task's retention run out, is not measured.
func BenchmarkRangeTaskPath(b *testing.B) {
	for _, inflight := range []int{1, 8} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			r := newRig(b, 128, 11, rigConfig())
			r.record = false
			g := r.ranges[0]
			subs := r.subs(g)
			hdr := &queryHdr{Query: testQuery, Injector: 2}
			answer := &task{finished: true}
			qid := ids.HashString("bench")
			step := retention / time.Duration(inflight)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				qid.Lo++
				hdr.QueryID = qid
				r.e.HandleMessage(2, hdr.rangeMsg(g.lo, g.hi, 2, 0))
				for _, s := range subs {
					answer.key = taskKey{qid, s.lo, s.hi}
					r.e.HandleMessage(1, answer)
				}
				b.StopTimer()
				r.advance(step)
				b.StartTimer()
			}
		})
	}
}

// subsSink keeps TestSubrangeSizeClass's fan-outs on the heap.
var subsSink []subrange

// TestSubrangeSizeClass pins a subrange at 48 bytes, so that the subranges
// of a 16-ary fan-out, 768 bytes and the 8-byte header the runtime puts on
// a pointerful object over 512 bytes, are one object of the 896-byte size
// class (the 1024-byte one at 56 bytes).
func TestSubrangeSizeClass(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	if size := unsafe.Sizeof(subrange{}); size != 48 {
		t.Errorf("subrange is %d bytes, want 48", size)
	}
	arity := DefaultConfig().Arity
	if n := bytesPerRun(100, func() { subsSink = make([]subrange, 0, arity) }); n != 896 {
		t.Errorf("a %d-ary fan-out's subranges take %d bytes, want the 896-byte size class", arity, n)
	}
}

// TestReissueSchedule pins the response timeouts: a first request waits
// responseTimeout, whatever responses the engine has seen, and draws
// nothing from the reissue stream; each reissue waits two to three times
// the attempt before it, capped at backoffCap, and draws once; and
// DisableBackoff keeps every attempt at responseTimeout.
func TestReissueSchedule(t *testing.T) {
	cfg := rigConfig()
	r := newRig(t, 128, 11, cfg)
	g := r.ranges[0]
	subs := r.subs(g)
	// Quick, unretried answers: what an RTT estimator would have shortened
	// the next first timeout on.
	for i := 0; i < 8; i++ {
		qid := ids.HashString(fmt.Sprint("answered", i))
		r.request(qid, g, 2)
		r.advance(100 * time.Millisecond)
		for _, s := range subs {
			r.answer(qid, s, rowsPred(1))
		}
	}
	qid := ids.HashString("unanswered")
	sent := r.sched.Now()
	r.request(qid, g, 2)
	// timeout is the timeout armed with a subrange's latest request, sent
	// at sent.
	timeout := func(s *subrange) time.Duration {
		at, armed := s.retry.When()
		if !armed {
			t.Fatal("a subrange awaits its response with no timeout armed")
		}
		return at - sent
	}
	awaited := func() []*subrange {
		var out []*subrange
		for _, s := range subs {
			if a := awaiting(r.e.queries[qid].list(), s.lo, s.hi); a != nil {
				out = append(out, a)
			}
		}
		if len(out) != len(subs) {
			t.Fatalf("%d of %d subranges awaited", len(out), len(subs))
		}
		return out
	}
	for _, s := range awaited() {
		if s.retry.N() != 0 || timeout(s) != responseTimeout {
			t.Errorf("first request after %d answers: attempt %d waits %v, want attempt 0 at %v",
				8*len(subs), s.retry.N(), timeout(s), responseTimeout)
		}
	}
	if r.e.rng != nil {
		t.Error("a first request drew from the reissue stream")
	}
	// The sinks swallow every request, so each subrange times out and is
	// reissued.
	r.advance(responseTimeout + time.Second)
	sent += responseTimeout
	for _, s := range awaited() {
		if d := timeout(s); s.retry.N() != 1 || d < 2*responseTimeout || d > 3*responseTimeout {
			t.Errorf("first reissue: attempt %d waits %v, want attempt 1 in [%v, %v]",
				s.retry.N(), d, 2*responseTimeout, 3*responseTimeout)
		}
	}

	// The whole ladder, attempt by attempt, against a stream of its own:
	// one draw per reissue, none for the first request.
	e := NewEngine(r.host, cfg)
	ref := rand.New(rand.NewSource(cfg.Seed))
	b, _ := Schedules(cfg.DisableBackoff)
	prev := b.First
	for n := 1; n <= 2*maxRetries; n++ {
		d := b.Next(prev, e.random)
		if lo, hi := min(2*prev, backoffCap), min(3*prev, backoffCap); d < lo || d > hi {
			t.Errorf("attempt %d waits %v after %v, want [%v, %v]", n, d, prev, lo, hi)
		}
		ref.Float64()
		prev = d
	}
	if prev != backoffCap {
		t.Errorf("attempt %d waits %v, want the cap %v", 2*maxRetries, prev, backoffCap)
	}
	if e.rng.Float64() != ref.Float64() {
		t.Error("the ladder drew other than once per reissue")
	}

	cfg.DisableBackoff = true
	flat := NewEngine(r.host, cfg)
	fb, _ := Schedules(cfg.DisableBackoff)
	for n, prev := 0, fb.First; n <= 2*maxRetries; n, prev = n+1, fb.Next(prev, flat.random) {
		if prev != responseTimeout {
			t.Errorf("DisableBackoff: attempt %d waits %v, want %v", n, prev, responseTimeout)
		}
	}
	if flat.rng != nil {
		t.Error("DisableBackoff drew from the reissue stream")
	}
}
