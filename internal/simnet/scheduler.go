// Package simnet provides the discrete-event network simulator underneath
// the Seaweed evaluation. It supplies three things: a virtual-time event
// scheduler, a router-level topology with per-link round-trip times (modeled
// on the world-wide Microsoft CorpNet topology used in the paper), and an
// endsystem message layer with per-endsystem bandwidth accounting broken
// down by traffic class.
//
// The paper's simulations cover four weeks of virtual time at millisecond
// event granularity for tens of thousands of endsystems. The scheduler is a
// sliding calendar wheel (millisecond-wide slots over a ~33 s window,
// occupancy tracked in a bitmap) with a binary-heap overflow level for
// far-future events, and all events are pooled structs rather than
// closures, with cancel handles (Timer) returned by value: once the pool is
// warm, a message delivery, an At/After with its Cancel and a periodic-timer
// firing allocate nothing (TestSchedulerSteadyStateAllocs).
package simnet

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// wheelTick is the width of one calendar-wheel slot. Protocol delays
	// are millisecond-scale, so one tick groups few events; exact sub-tick
	// ordering is restored by sorting a slot when it is drained.
	wheelTick = time.Millisecond
	// wheelSlots is the number of slots (must be a power of two). The
	// window wheelSlots×wheelTick ≈ 33 s keeps heartbeat-scale periodic
	// timers inside the wheel; anything farther out overflows to the heap
	// and migrates into the wheel as time advances.
	wheelSlots = 1 << 15
	wheelMask  = wheelSlots - 1

	maxDuration = time.Duration(1<<63 - 1)
)

// event kinds. evNone marks a canceled (or pooled) event, lazily discarded.
const (
	evNone = iota
	// evFunc runs an arbitrary callback (the general At/After path).
	evFunc
	// evDeliver delivers a network message: receiver and payload are
	// struct fields, so Network.Send allocates nothing per message.
	evDeliver
	// evPeriodic is a self-rescheduling timer (Wheel.Every): one
	// callback captured at creation, the same pooled event re-armed every
	// period with a fresh sequence number.
	evPeriodic
)

// event is a pooled scheduler entry. Events are owned by the scheduler and
// recycled through a free list; external references go through Timer, which
// validates its tid before touching the event.
type event struct {
	at   time.Duration
	seq  uint64
	tid  uint64 // timer identity; 0 when no Timer can refer to this event
	next *event // slot free-list link
	kind uint8

	// evFunc / evPeriodic
	fn     func()
	period time.Duration

	// evDeliver
	net      *Network
	from, to Endpoint
	size     int
	class    Class
	payload  any
}

// Wheel is the simulator's event engine: schedule (At/After/Every),
// cancel (via the returned Timer), and advance (Run/RunUntil). The zero
// value is not usable; call NewWheel. Wheels are not safe for concurrent
// use: a whole simulation runs single-threaded in virtual time, which is
// what makes runs deterministic and reproducible. Parallel sweeps (see
// internal/runner) give every run its own wheel; RunUntil asserts this
// single-driver discipline and panics if two goroutines ever drive the same
// wheel concurrently, turning a silent determinism bug into a loud one.
//
// Events execute in (time, schedule order) — the wheel preserves exactly
// the time-then-FIFO guarantee of the original binary-heap queue, which is
// what keeps equal-seed runs byte-identical at any sweep worker count
// (TestSchedulerOrderOracle checks the wheel against a heap oracle).
type Wheel struct {
	now      time.Duration
	seq      uint64
	tids     uint64
	executed uint64
	pending  int

	// Calendar wheel: slot lists indexed by tick & wheelMask, occupancy
	// bitmap, and the current tick. Invariant: every wheeled event e has
	// tickOf(e.at) in [curTick, curTick+wheelSlots), which makes the
	// modular slot mapping unambiguous.
	slots   [wheelSlots]*event
	bitmap  [wheelSlots / 64]uint64
	curTick int64
	wheeled int

	// Overflow level: far-future events (≥ curTick+wheelSlots ticks),
	// min-heap by (at, seq); they migrate into the wheel as curTick
	// advances.
	over []*event

	// due holds the events of the tick currently being drained (dueTick),
	// sorted by (at, seq); dueIdx is the execution cursor. Events
	// scheduled into the draining tick are merge-inserted so sub-tick
	// ordering stays exact.
	due     []*event
	dueIdx  int
	dueTick int64

	// free is the event pool.
	free *event

	// running guards against concurrent (or re-entrant) RunUntil: one
	// scheduler, one driving goroutine.
	running atomic.Bool
}

// NewWheel returns a calendar-wheel scheduler whose clock starts at 0.
func NewWheel() *Wheel {
	return &Wheel{}
}

// Now returns the current virtual time, measured from the start of the
// simulation.
func (s *Wheel) Now() time.Duration { return s.now }

// Executed returns the cumulative number of events executed by the
// scheduler since creation. It is the numerator of the events/sec and
// ns/event throughput metrics the benchmark (bench/) reports.
func (s *Wheel) Executed() uint64 { return s.executed }

// Pending returns the number of queued events, including lazily canceled
// ones.
func (s *Wheel) Pending() int { return s.pending }

func tickOf(t time.Duration) int64 { return int64(t / wheelTick) }

// alloc takes an event from the pool (or the heap allocator when the pool
// is empty; steady state recycles).
func (s *Wheel) alloc() *event {
	ev := s.free
	if ev == nil {
		return &event{}
	}
	s.free = ev.next
	ev.next = nil
	return ev
}

// recycle clears an event's references and returns it to the pool.
func (s *Wheel) recycle(ev *event) {
	ev.kind = evNone
	ev.tid = 0
	ev.fn = nil
	ev.net = nil
	ev.payload = nil
	ev.next = s.free
	s.free = ev
}

// schedule assigns the event its FIFO sequence number and files it into the
// due buffer, the wheel, or the overflow heap. The event's at must not be
// in the past.
func (s *Wheel) schedule(ev *event) {
	ev.seq = s.seq
	s.seq++
	s.pending++
	t := tickOf(ev.at)
	if s.dueIdx < len(s.due) && t == s.dueTick {
		// The event lands in the tick currently being drained: merge it
		// into the sorted due buffer so it still runs in (at, seq) order
		// relative to the not-yet-executed events of this tick.
		s.dueInsert(ev)
		return
	}
	if t < s.curTick+wheelSlots {
		s.wheelPush(ev, t)
		return
	}
	s.overPush(ev)
}

func (s *Wheel) wheelPush(ev *event, tick int64) {
	slot := int(tick & wheelMask)
	ev.next = s.slots[slot]
	s.slots[slot] = ev
	s.bitmap[slot>>6] |= 1 << uint(slot&63)
	s.wheeled++
}

// dueInsert places ev into the pending portion of the sorted due buffer.
// ev carries the largest sequence number so far, so its position is after
// every queued event with an equal-or-earlier time.
func (s *Wheel) dueInsert(ev *event) {
	lo, hi := s.dueIdx, len(s.due)
	for lo < hi {
		mid := (lo + hi) / 2
		if eventBefore(s.due[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.due = append(s.due, nil)
	copy(s.due[lo+1:], s.due[lo:])
	s.due[lo] = ev
}

// eventBefore is the global execution order: time, then schedule order.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---------------------------------------------------------------- overflow

func (s *Wheel) overPush(ev *event) {
	s.over = append(s.over, ev)
	i := len(s.over) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(s.over[i], s.over[parent]) {
			break
		}
		s.over[i], s.over[parent] = s.over[parent], s.over[i]
		i = parent
	}
}

func (s *Wheel) overPop() *event {
	h := s.over
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	s.over = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		min := l
		if r < n && eventBefore(h[r], h[l]) {
			min = r
		}
		if !eventBefore(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return ev
}

// ------------------------------------------------------------------ wheel

// nextWheelTick returns the absolute tick of the earliest occupied wheel
// slot at or after curTick, scanning the occupancy bitmap.
func (s *Wheel) nextWheelTick() (int64, bool) {
	if s.wheeled == 0 {
		return 0, false
	}
	base := int(s.curTick & wheelMask)
	// First (possibly partial) word.
	word := s.bitmap[base>>6] >> uint(base&63)
	if word != 0 {
		return s.curTick + int64(bits.TrailingZeros64(word)), true
	}
	// Remaining words, wrapping once around the wheel.
	for i := 1; i <= len(s.bitmap); i++ {
		w := (base>>6 + i) % len(s.bitmap)
		if s.bitmap[w] != 0 {
			slot := w<<6 + bits.TrailingZeros64(s.bitmap[w])
			d := (int64(slot) - s.curTick) & wheelMask
			return s.curTick + d, true
		}
	}
	return 0, false
}

// advance moves the scheduler to the earliest pending tick: migrates
// now-eligible overflow events into the wheel, drains that tick's slot
// into the sorted due buffer, and sets curTick. It reports false when no
// events remain anywhere or the earliest tick lies beyond limit (leaving
// curTick at most limit, so the window stays aligned with the clock).
func (s *Wheel) advance(limit int64) bool {
	wt, wok := s.nextWheelTick()
	var target int64
	switch {
	case wok && len(s.over) > 0:
		ot := tickOf(s.over[0].at)
		if ot < wt {
			target = ot
		} else {
			target = wt
		}
	case wok:
		target = wt
	case len(s.over) > 0:
		target = tickOf(s.over[0].at)
	default:
		return false
	}
	if target > limit {
		// Deadline falls before the next event: every pending event has a
		// tick >= target, so curTick may safely advance to the limit.
		if limit > s.curTick {
			s.curTick = limit
		}
		return false
	}

	s.curTick = target
	s.dueTick = target
	s.due = s.due[:0]
	s.dueIdx = 0

	// Migrate overflow events that now fit the window; those landing on
	// the target tick go straight to the due buffer.
	for len(s.over) > 0 && tickOf(s.over[0].at) < s.curTick+wheelSlots {
		ev := s.overPop()
		if t := tickOf(ev.at); t == target {
			s.due = append(s.due, ev)
		} else {
			s.wheelPush(ev, t)
		}
	}

	// Drain the target slot. List order is last-scheduled-first; reverse
	// while collecting so the common all-one-burst case is already in
	// (at, seq) order and the sort below is a linear pass.
	slot := int(target & wheelMask)
	if ev := s.slots[slot]; ev != nil {
		s.slots[slot] = nil
		s.bitmap[slot>>6] &^= 1 << uint(slot&63)
		head := len(s.due)
		for ; ev != nil; ev = ev.next {
			s.due = append(s.due, ev)
			s.wheeled--
		}
		for i, j := head, len(s.due)-1; i < j; i, j = i+1, j-1 {
			s.due[i], s.due[j] = s.due[j], s.due[i]
		}
	}
	sortEvents(s.due)
	return true
}

// sortEvents sorts by (at, seq) without allocating: shell sort, linear on
// the already-sorted sequences the drain path produces.
func sortEvents(evs []*event) {
	n := len(evs)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			ev := evs[i]
			j := i
			for ; j >= gap && eventBefore(ev, evs[j-gap]); j -= gap {
				evs[j] = evs[j-gap]
			}
			evs[j] = ev
		}
	}
}

// ------------------------------------------------------------------ timers

// Timer is a handle to a scheduled event (or repeating event), usable to
// cancel it before it fires. It is a value: scheduling allocates no handle,
// and holders keep it by value. Events are pooled, so the handle carries
// the timer identity it was issued for and becomes inert once the event
// fires, is canceled or is recycled — through any copy of it. The zero
// Timer refers to nothing.
type Timer struct {
	ev  *event
	tid uint64
}

// Cancel prevents the timer's event from firing (and, for repeating timers,
// stops all future firings, even from within a firing) and reports whether
// it stopped one. Canceling an already-fired one-shot timer, an
// already-canceled timer or the zero Timer is a no-op returning false.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.tid != t.tid {
		return false
	}
	t.ev.kind = evNone // the queue lazily discards canceled events
	t.ev.tid = 0       // every copy of the handle now finds nothing
	return true
}

// newTimer brands a scheduled event with a fresh timer identity and
// returns its cancel handle.
func (s *Wheel) newTimer(ev *event) Timer {
	s.tids++
	ev.tid = s.tids
	return Timer{ev: ev, tid: s.tids}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (or present) runs the event at the current time, after all events already
// scheduled for that time.
func (s *Wheel) At(at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("simnet: At called with nil fn")
	}
	if at < s.now {
		at = s.now
	}
	ev := s.alloc()
	ev.kind = evFunc
	ev.at = at
	ev.fn = fn
	s.schedule(ev)
	return s.newTimer(ev)
}

// After schedules fn to run d after the current virtual time.
func (s *Wheel) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Timer is canceled. The timer is one pooled event
// re-armed after each firing (with a fresh sequence number, preserving
// FIFO fairness among same-time events), so the steady-state tick chain
// allocates nothing. Cancel takes effect at the next period boundary.
func (s *Wheel) Every(period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic(fmt.Sprintf("simnet: Every with non-positive period %v", period))
	}
	if fn == nil {
		panic("simnet: Every called with nil fn")
	}
	ev := s.alloc()
	ev.kind = evPeriodic
	ev.at = s.now + period
	ev.period = period
	ev.fn = fn
	s.schedule(ev)
	return s.newTimer(ev)
}

// sendAt schedules a message delivery as a struct event: the per-message
// hot path of Network.Send, with no closure and no Timer.
func (s *Wheel) sendAt(at time.Duration, n *Network, from, to Endpoint,
	size int, class Class, payload any) {
	ev := s.alloc()
	ev.kind = evDeliver
	ev.at = at
	ev.net = n
	ev.from = from
	ev.to = to
	ev.size = size
	ev.class = class
	ev.payload = payload
	s.schedule(ev)
}

// -------------------------------------------------------------- execution

// Run executes events until the queue is empty. It returns the number of
// events executed.
func (s *Wheel) Run() int { return s.RunUntil(maxDuration) }

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to each event's time, and finally advances the clock to deadline (if the
// deadline exceeds the last event). It returns the number of events
// executed.
func (s *Wheel) RunUntil(deadline time.Duration) int {
	if !s.running.CompareAndSwap(false, true) {
		panic("simnet: Wheel driven from two goroutines concurrently; " +
			"each parallel run must own its scheduler (see internal/runner)")
	}
	defer s.running.Store(false)
	n := 0
	for {
		// Drain the due buffer of the current tick first: it holds the
		// earliest pending events by construction.
		for s.dueIdx < len(s.due) {
			ev := s.due[s.dueIdx]
			if ev.kind == evNone { // canceled: discard
				s.dueIdx++
				s.pending--
				s.recycle(ev)
				continue
			}
			if ev.at > deadline {
				goto done
			}
			s.dueIdx++
			s.pending--
			s.now = ev.at
			s.dispatch(ev)
			n++
			s.executed++
		}
		s.due = s.due[:0]
		s.dueIdx = 0
		if !s.advance(tickOf(deadline)) {
			break
		}
	}
done:
	if deadline > s.now && deadline < maxDuration {
		s.now = deadline
		if t := tickOf(deadline); t > s.curTick {
			s.curTick = t
		}
	}
	return n
}

// dispatch executes one event and recycles it (periodic events re-arm
// instead, reusing the same pooled event).
func (s *Wheel) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		fn := ev.fn
		s.recycle(ev)
		fn()
	case evDeliver:
		net, from, to := ev.net, ev.from, ev.to
		size, class, payload := ev.size, ev.class, ev.payload
		s.recycle(ev)
		net.deliver(from, to, size, class, payload)
	case evPeriodic:
		ev.fn()
		if ev.kind == evPeriodic { // not canceled from within the tick
			ev.at = s.now + ev.period
			s.schedule(ev)
		} else {
			s.recycle(ev)
		}
	default:
		s.recycle(ev)
	}
}
