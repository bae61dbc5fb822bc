package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file keeps the original binary-heap scheduler alive as a test-only
// oracle. TestSchedulerOrderOracle drives the production calendar-wheel
// scheduler and the heap oracle through identical randomized schedules of
// At/After/Every/Cancel (including same-time bursts, sub-tick offsets,
// past events, overflow-range delays and nested scheduling) and requires
// the two to execute events in exactly the same order: the wheel must
// preserve the documented time-then-FIFO guarantee event for event,
// because equal-seed byte-identical sweep output depends on it.

// ---------------------------------------------------------------- oracle

type oracleEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(*oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type oracleScheduler struct {
	now   time.Duration
	seq   uint64
	queue oracleQueue
}

type oracleTimer struct {
	s        *oracleScheduler
	ev       *oracleEvent
	periodic bool
	stopped  bool
}

// Cancel reports whether it stopped a firing, as Timer.Cancel does: a
// periodic timer stops until it is canceled, a one-shot only until it runs.
func (t *oracleTimer) Cancel() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	live := t.periodic || t.ev.fn != nil
	t.ev.fn = nil
	return live
}

func (s *oracleScheduler) Now() time.Duration { return s.now }

func (s *oracleScheduler) At(at time.Duration, fn func()) *oracleTimer {
	if at < s.now {
		at = s.now
	}
	ev := &oracleEvent{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return &oracleTimer{s: s, ev: ev}
}

func (s *oracleScheduler) After(d time.Duration, fn func()) *oracleTimer {
	return s.At(s.now+d, fn)
}

func (s *oracleScheduler) Every(period time.Duration, fn func()) *oracleTimer {
	t := &oracleTimer{s: s, periodic: true}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if t.stopped {
			return
		}
		t.ev = s.After(period, tick).ev
	}
	t.ev = s.After(period, tick).ev
	return t
}

func (s *oracleScheduler) RunUntil(deadline time.Duration) int {
	n := 0
	for s.queue.Len() > 0 {
		ev := s.queue[0]
		if ev.at > deadline {
			break
		}
		heap.Pop(&s.queue)
		if ev.fn == nil {
			continue
		}
		s.now = ev.at
		fn := ev.fn
		ev.fn = nil
		fn()
		n++
	}
	if deadline > s.now && deadline < maxDuration {
		s.now = deadline
	}
	return n
}

// ------------------------------------------------------- shared interface

type canceler interface{ Cancel() bool }

type schedIface interface {
	Now() time.Duration
	At(time.Duration, func()) canceler
	After(time.Duration, func()) canceler
	Every(time.Duration, func()) canceler
	RunUntil(time.Duration) int
}

type wheelAdapter struct{ s *Wheel }

func (a wheelAdapter) Now() time.Duration                        { return a.s.Now() }
func (a wheelAdapter) At(at time.Duration, fn func()) canceler   { return a.s.At(at, fn) }
func (a wheelAdapter) After(d time.Duration, fn func()) canceler { return a.s.After(d, fn) }
func (a wheelAdapter) Every(p time.Duration, fn func()) canceler { return a.s.Every(p, fn) }
func (a wheelAdapter) RunUntil(d time.Duration) int              { return a.s.RunUntil(d) }

type oracleAdapter struct{ s *oracleScheduler }

func (a oracleAdapter) Now() time.Duration                        { return a.s.now }
func (a oracleAdapter) At(at time.Duration, fn func()) canceler   { return a.s.At(at, fn) }
func (a oracleAdapter) After(d time.Duration, fn func()) canceler { return a.s.After(d, fn) }
func (a oracleAdapter) Every(p time.Duration, fn func()) canceler { return a.s.Every(p, fn) }
func (a oracleAdapter) RunUntil(d time.Duration) int              { return a.s.RunUntil(d) }

// randomDelay draws from the delay mix the simulator actually produces:
// sub-tick offsets, message-scale milliseconds, heartbeat-scale seconds
// within the wheel window, and far-future delays that overflow to the heap.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(6) {
	case 0: // same-instant burst
		return 0
	case 1: // sub-tick
		return time.Duration(rng.Intn(int(wheelTick)))
	case 2: // message delays
		return time.Duration(rng.Intn(200)) * time.Millisecond
	case 3: // within the wheel window
		return time.Duration(rng.Int63n(int64(wheelSlots) * int64(wheelTick)))
	case 4: // overflow range
		return time.Duration(rng.Int63n(int64(10 * time.Minute)))
	default: // ns-granular, window-straddling
		return time.Duration(rng.Int63n(int64(90 * time.Second)))
	}
}

// runScript drives one scheduler implementation through a deterministic
// random schedule and returns the observed execution log. The rng stream
// is consumed inside event callbacks, so the log (and the stream itself)
// stays identical between implementations exactly when their execution
// orders are identical.
func runScript(s schedIface, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var timers []canceler
	nextID := 0

	var spawn func(depth int)
	record := func(id int) {
		log = append(log, fmt.Sprintf("%d@%d", id, s.Now()))
	}
	// cancel logs whether the cancel stopped a firing: the two must agree
	// on that too.
	cancel := func(tm canceler) {
		log = append(log, fmt.Sprintf("cancel=%v@%d", tm.Cancel(), s.Now()))
	}
	spawn = func(depth int) {
		id := nextID
		nextID++
		switch op := rng.Intn(10); {
		case op < 5: // After
			d := randomDelay(rng)
			timers = append(timers, s.After(d, func() {
				record(id)
				if depth < 3 && rng.Intn(3) == 0 {
					spawn(depth + 1)
				}
				if len(timers) > 0 && rng.Intn(4) == 0 {
					cancel(timers[rng.Intn(len(timers))])
				}
			}))
		case op < 8: // At, absolute (possibly in the past)
			at := time.Duration(rng.Int63n(int64(2 * time.Minute)))
			timers = append(timers, s.At(at, func() {
				record(id)
				if depth < 3 && rng.Intn(3) == 0 {
					spawn(depth + 1)
				}
			}))
		default: // Every, canceled from within after a few ticks
			period := time.Duration(1 + rng.Intn(int(45*time.Second))) // ns granular
			remaining := 1 + rng.Intn(4)
			var tm canceler
			tm = s.Every(period, func() {
				record(id)
				remaining--
				if remaining <= 0 {
					cancel(tm)
				}
				if depth < 3 && rng.Intn(4) == 0 {
					spawn(depth + 1)
				}
			})
			timers = append(timers, tm)
		}
	}

	for i := 0; i < 40; i++ {
		spawn(0)
	}
	// Several RunUntil segments with fresh scheduling (and cancels)
	// in between, including deadlines landing mid-tick.
	deadline := time.Duration(0)
	for seg := 0; seg < 8; seg++ {
		deadline += time.Duration(rng.Int63n(int64(40 * time.Second)))
		n := s.RunUntil(deadline)
		log = append(log, fmt.Sprintf("seg%d:n=%d now=%d", seg, n, s.Now()))
		for i := 0; i < 5; i++ {
			spawn(0)
		}
		if len(timers) > 0 {
			cancel(timers[rng.Intn(len(timers))])
		}
	}
	// Drain everything that terminates (Everys are all self-canceling).
	n := s.RunUntil(6 * time.Hour)
	log = append(log, fmt.Sprintf("final:n=%d now=%d", n, s.Now()))
	return log
}

func TestSchedulerOrderOracle(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := runScript(wheelAdapter{NewWheel()}, seed)
		want := runScript(oracleAdapter{&oracleScheduler{}}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel executed %d log entries, oracle %d\nwheel tail: %v\noracle tail: %v",
				seed, len(got), len(want), tail(got, 5), tail(want, 5))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: execution order diverges at entry %d: wheel %q, oracle %q",
					seed, i, got[i], want[i])
			}
		}
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
