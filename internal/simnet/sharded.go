package simnet

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Sharded is the multi-core event engine: one calendar Wheel per topology
// failure region, advanced in conservative-lookahead windows and merged
// deterministically at window barriers.
//
// # Partitioning
//
// Endsystems attach to routers; routers belong to failure regions (the
// subtree of one core router — see Topology.Region). One shard per region.
// Every event an endsystem schedules on itself (timers, local callbacks,
// same-region message deliveries) lives on its shard's wheel and never
// synchronizes with other shards.
//
// # Lookahead
//
// The only cross-shard interaction is a network message, and a message
// between endsystems in different regions takes at least
// L = Topology.MinCrossRegionOneWay() of virtual time. Therefore events in
// [t, t+L) on one shard cannot be affected by events at or after t on any
// other shard, and all shards may execute a window [w, w+L) concurrently.
// Cross-shard sends produced inside a window are buffered in per-source
// outboxes and merged at the window barrier; their delivery times are
// necessarily >= w+L (asserted), i.e. beyond the window, so no shard ever
// misses a message.
//
// # Determinism
//
// Within a wheel, events execute in (time, FIFO seq) order exactly as in
// the serial engine. Across shards, outbox entries are merged in the total
// order (time, source shard id, per-source FIFO seq) before insertion into
// destination wheels, so destination-side sequence numbers — and hence all
// downstream tie-breaks — are independent of which worker ran which shard
// when. Window boundaries themselves depend only on exact pending-event
// times, which are deterministic by induction. Results are therefore
// byte-identical for any worker count, which TestShardedByteDeterminism
// checks end to end.
//
// # Workers
//
// Worker count is parallelism, not partitioning: the shard layout is fixed
// by the topology. workers=1 executes shards of a window sequentially in
// shard order; workers>1 farms window shards out to a goroutine pool.
// Components that read or mutate state across shards mid-run (fault
// injection, obs sampling/tracing) force workers to 1 via ForceSerial; the
// window schedule is unchanged, so forced-serial runs stay byte-identical
// to parallel ones.
type Sharded struct {
	topo      *Topology
	wheels    []*Wheel
	lookahead time.Duration
	workers   int

	// forceSerial pins execution to one worker (same windows, same
	// results); set by components that touch cross-shard state mid-run.
	forceSerial atomic.Bool

	// Per-source-shard outboxes of cross-shard operations produced during
	// the current window, plus cumulative per-source FIFO sequence numbers.
	out    [][]xop
	outSeq []uint64
	// merged is the barrier-time scratch buffer for the canonical sort.
	merged []xop

	// barriers are commit hooks (e.g. the pastry live-set oracle) run after
	// the outbox merge of every window.
	barriers []func()

	running atomic.Bool

	// soloActive is the shard running a solo fast-path window, or -1.
	// While a shard runs solo, its own cross-shard emissions shrink its
	// safe horizon (the remote shard may react and send back after 2L);
	// enqueue tightens the solo wheel's run cap accordingly.
	soloActive int

	// windowLimit is the inclusive per-window deadline handed to workers.
	windowLimit time.Duration
	work        chan int
	done        chan int
}

// xop is a cross-shard operation buffered in a source shard's outbox.
type xop struct {
	at   time.Duration
	seq  uint64 // per-source-shard FIFO
	src  int32
	dst  int32
	fn   func() // nil for deliveries
	net  *Network
	from Endpoint
	to   Endpoint
	size int
	cls  Class
	pay  any
}

// NewSharded returns a sharded engine over the given topology with the
// given worker parallelism (clamped to [1, number of regions]). With a
// single-region topology the engine degrades to one wheel and behaves like
// the serial engine.
func NewSharded(topo *Topology, workers int) *Sharded {
	k := topo.NumRegions()
	if k < 1 {
		k = 1
	}
	e := &Sharded{
		topo:       topo,
		wheels:     make([]*Wheel, k),
		lookahead:  topo.MinCrossRegionOneWay(),
		workers:    workers,
		out:        make([][]xop, k),
		outSeq:     make([]uint64, k),
		soloActive: -1,
	}
	for i := range e.wheels {
		e.wheels[i] = NewWheel()
	}
	if k > 1 && e.lookahead <= 0 {
		panic("simnet: multi-region topology with zero cross-region delay; sharded engine needs positive lookahead")
	}
	if e.workers < 1 {
		e.workers = 1
	}
	if e.workers > k {
		e.workers = k
	}
	return e
}

// NumShards returns the number of logical shards (topology regions).
func (e *Sharded) NumShards() int { return len(e.wheels) }

// Lookahead returns the synchronization window: the minimum cross-region
// one-way message delay.
func (e *Sharded) Lookahead() time.Duration { return e.lookahead }

// Workers returns the configured worker parallelism (before ForceSerial).
func (e *Sharded) Workers() int { return e.workers }

// ForceSerial pins the engine to one worker. The window schedule — and
// therefore every simulation result — is unchanged; only concurrency is
// given up. Components that read or mutate cross-shard state from inside
// the run (fault injection's reachability oracle, obs sampling, tracing)
// call this at attach time.
func (e *Sharded) ForceSerial(reason string) {
	e.forceSerial.Store(true)
	_ = reason
}

// Serialized reports whether ForceSerial has pinned execution to one worker.
func (e *Sharded) Serialized() bool { return e.forceSerial.Load() }

// wheelFor returns shard i's wheel.
func (e *Sharded) wheelFor(i int) *Wheel { return e.wheels[i] }

// onBarrier registers fn to run at every window barrier (and once per
// RunUntil exit), single-threaded, after the outbox merge.
func (e *Sharded) onBarrier(fn func()) { e.barriers = append(e.barriers, fn) }

// ----------------------------------------------------------- Scheduler API

// Now returns the current virtual time. Outside RunUntil all wheel clocks
// are aligned to the last deadline; engine-level time is wheel 0's clock.
func (e *Sharded) Now() time.Duration { return e.wheels[0].Now() }

// At schedules an engine-level event on shard 0's wheel. Engine-level
// timers (fault scripts, samplers, harness injection) are coordination
// work, not endsystem work; pinning them to shard 0 keeps them in the
// deterministic order of one wheel. Endsystem work must go through the
// per-endpoint wheel (Network.SchedulerFor).
func (e *Sharded) At(at time.Duration, fn func()) Timer { return e.wheels[0].At(at, fn) }

// After schedules an engine-level event d from now on shard 0's wheel.
func (e *Sharded) After(d time.Duration, fn func()) Timer { return e.wheels[0].After(d, fn) }

// Every schedules an engine-level periodic event on shard 0's wheel.
func (e *Sharded) Every(p time.Duration, fn func()) Timer { return e.wheels[0].Every(p, fn) }

// Pending returns the number of queued events across all shards.
func (e *Sharded) Pending() int {
	n := 0
	for _, w := range e.wheels {
		n += w.Pending()
	}
	return n
}

// Executed returns the cumulative number of events executed.
func (e *Sharded) Executed() uint64 {
	var n uint64
	for _, w := range e.wheels {
		n += w.Executed()
	}
	return n
}

// Run executes events until every shard's queue is empty.
func (e *Sharded) Run() int { return e.RunUntil(maxDuration) }

// satAdd adds two durations, saturating at maxDuration.
func satAdd(a, b time.Duration) time.Duration {
	if a > maxDuration-b {
		return maxDuration
	}
	return a + b
}

// RunUntil executes events with timestamps <= deadline on all shards and
// aligns every shard clock to deadline. It returns the number of events
// executed.
func (e *Sharded) RunUntil(deadline time.Duration) int {
	if !e.running.CompareAndSwap(false, true) {
		panic("simnet: Sharded engine driven from two goroutines concurrently")
	}
	defer e.running.Store(false)

	total := 0
	if len(e.wheels) == 1 {
		// Single region: no cross-shard traffic exists; run the wheel
		// directly and keep barrier hooks' (trivial) commitments flowing.
		total = e.wheels[0].RunUntil(deadline)
		for _, f := range e.barriers {
			f()
		}
		return total
	}

	workers := e.workers
	if e.forceSerial.Load() {
		workers = 1
	}
	if workers > 1 && e.work == nil {
		e.startWorkers()
	}

	stall := 0
	for {
		// Exact next-event time per shard; m1 = min (owner shard a), m2 =
		// runner-up. Ties resolve to the lowest shard id, but the choice
		// only matters for the solo fast path, which a tie disables.
		m1, m2 := maxDuration, maxDuration
		a := -1
		for i, w := range e.wheels {
			t, ok := w.nextEventTime()
			if !ok {
				continue
			}
			if t < m1 {
				m2 = m1
				m1 = t
				a = i
			} else if t < m2 {
				m2 = t
			}
		}
		if a < 0 || m1 > deadline {
			break
		}

		// Window [m1, end), end exclusive. Solo fast path: when the
		// runner-up shard's first event is at least one lookahead away,
		// shard a starts running alone toward m2+L — events of other
		// shards begin at m2 and need >= L to reach a. The moment a
		// itself emits a cross-shard operation (arrival at'), the remote
		// shard may react and reach back after a further L, so enqueue
		// tightens a's run cap to at'+L-1. This collapses sparse phases
		// (periodic metadata pushes far apart in time) to near-serial
		// cost instead of one barrier per lookahead.
		solo := m2 >= satAdd(m1, e.lookahead)
		var end time.Duration
		if solo {
			end = satAdd(m2, e.lookahead)
		} else {
			end = satAdd(m1, e.lookahead)
		}
		if d := satAdd(deadline, 1); d < end {
			end = d
		}
		// limit is the inclusive window deadline. An unbounded window
		// (Run(), or a lone populated shard with m2 == maxDuration) keeps
		// the wheel's "don't advance the clock past the last event"
		// behavior by passing maxDuration through.
		limit := end - 1
		if end == maxDuration {
			limit = maxDuration
		}

		windowTotal := 0
		if solo {
			e.soloActive = a
			windowTotal = e.wheels[a].RunUntil(limit)
			e.soloActive = -1
		} else if workers == 1 {
			for _, w := range e.wheels {
				windowTotal += w.RunUntil(limit)
			}
		} else {
			e.windowLimit = limit
			for i := range e.wheels {
				e.work <- i
			}
			for range e.wheels {
				windowTotal += <-e.done
			}
		}
		total += windowTotal
		// Liveness backstop: consecutive zero-event windows mean a wheel
		// reports a pending event it cannot execute (a broken invariant),
		// and the loop would otherwise spin forever. Legitimate empty
		// windows (canceled events, runCap-retained due entries) resolve
		// within a handful of iterations.
		if windowTotal == 0 {
			stall++
			if stall > 10000 {
				msg := fmt.Sprintf("simnet: sharded engine stalled: m1=%v a=%d m2=%v solo=%v limit=%v lookahead=%v\n", m1, a, m2, solo, limit, e.lookahead)
				for i, w := range e.wheels {
					t, ok := w.nextEventTime()
					msg += fmt.Sprintf("  wheel %d: now=%v next=%v(%v) pending=%d due=%d/%d over=%d curTick=%d\n",
						i, w.Now(), t, ok, w.Pending(), w.dueIdx, len(w.due), len(w.over), w.curTick)
				}
				panic(msg)
			}
		} else {
			stall = 0
		}

		// Barrier: canonical outbox merge first (destination clocks still
		// precede every merged arrival), then commit hooks, then clock
		// alignment — which clamps to each wheel's earliest pending event,
		// including just-merged arrivals.
		e.mergeOutboxes(m1)
		for _, f := range e.barriers {
			f()
		}
		if limit < maxDuration {
			// Safe alignment horizon. A tightened solo window stops short of
			// the nominal limit, and its merged emissions re-seed other
			// shards below it; aligning any clock to the nominal limit would
			// then let future windows (which restart at the global next
			// event gn) deliver into that wheel's past. Every future
			// cross-shard arrival is >= its window's start + L >= gn + L, so
			// gn+L-1 is the highest horizon no arrival can undercut. For
			// non-solo and untightened solo windows every pending event
			// exceeds limit, so the horizon degenerates to limit and
			// alignment is unchanged.
			horizon := limit
			gn := maxDuration
			for _, w := range e.wheels {
				if t, ok := w.nextEventTime(); ok && t < gn {
					gn = t
				}
			}
			if h := satAdd(gn, e.lookahead) - 1; h < horizon {
				horizon = h
			}
			for _, w := range e.wheels {
				w.alignTo(horizon)
			}
		}
	}

	if deadline < maxDuration {
		for _, w := range e.wheels {
			// All pending events are now beyond deadline (the loop ended
			// with m1 > deadline), so alignment reaches deadline exactly.
			w.alignTo(deadline)
		}
	}
	for _, f := range e.barriers {
		f()
	}
	return total
}

// startWorkers spins up the parked worker pool. Workers block on the work
// channel between windows; channel handoff provides the happens-before
// edges between the coordinator's window setup and the workers' wheel
// access.
func (e *Sharded) startWorkers() {
	// Buffered to the shard count so the coordinator can hand out a whole
	// window without blocking on worker progress (fewer workers than
	// shards would otherwise deadlock on the unbuffered handoff).
	e.work = make(chan int, len(e.wheels))
	e.done = make(chan int, len(e.wheels))
	for w := 0; w < e.workers; w++ {
		go func() {
			for i := range e.work {
				e.done <- e.wheels[i].RunUntil(e.windowLimit)
			}
		}()
	}
}

// enqueue appends a cross-shard operation to the source shard's outbox.
// Only the worker that owns src during a window touches out[src], so no
// locking is needed. During a solo window the emission shrinks the solo
// shard's safe horizon: the destination processes the op at op.at (at
// least) and its reaction needs a further lookahead to travel back, so
// the solo run may not proceed past op.at+L-1.
func (e *Sharded) enqueue(op xop) {
	op.seq = e.outSeq[op.src]
	e.outSeq[op.src]++
	e.out[op.src] = append(e.out[op.src], op)
	if int(op.src) == e.soloActive {
		e.wheels[op.src].tightenCap(satAdd(op.at, e.lookahead) - 1)
	}
}

// mergeOutboxes drains every shard's outbox in the canonical total order
// (time, source shard, per-source FIFO seq) and inserts the operations
// into their destination wheels, which assign destination-local sequence
// numbers in that same order — the step that makes cross-shard arrival
// order worker-count independent.
func (e *Sharded) mergeOutboxes(windowStart time.Duration) {
	e.merged = e.merged[:0]
	for i := range e.out {
		e.merged = append(e.merged, e.out[i]...)
		e.out[i] = e.out[i][:0]
	}
	if len(e.merged) == 0 {
		return
	}
	sort.Slice(e.merged, func(i, j int) bool {
		a, b := &e.merged[i], &e.merged[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	floor := satAdd(windowStart, e.lookahead)
	for i := range e.merged {
		op := &e.merged[i]
		w := e.wheels[op.dst]
		if op.fn != nil {
			// Callback ops (Network.CallAfter) may carry sub-lookahead
			// delays; clamp instead of asserting — they model local
			// reactions, not network transit.
			at := op.at
			if at < floor {
				at = floor
			}
			w.At(at, op.fn)
			op.fn = nil
			continue
		}
		if op.at < floor {
			panic(fmt.Sprintf("simnet: cross-shard delivery at %v violates lookahead window [%v+%v); shard %d -> %d",
				op.at, windowStart, e.lookahead, op.src, op.dst))
		}
		w.sendAt(op.at, op.net, op.from, op.to, op.size, op.cls, op.pay)
		op.net = nil
		op.pay = nil
	}
	e.merged = e.merged[:0]
}
