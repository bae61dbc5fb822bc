package simnet

import (
	"math/rand"
	"time"
)

// Backoff is a retransmission schedule, the one rule every retransmission
// follows. A first send arms First; each retransmission arms
// min(t·Grow + t·Jitter·u, Cap), where t is the timeout armed with the send
// before it and u is uniform in [0, 1), drawn from rng only when Jitter is
// non-zero (a zero Cap caps nothing). After Budget retransmissions (0: no
// limit) the next timeout gives up; a holder whose give-up does nothing
// arms no timeout for it.
type Backoff struct {
	First        time.Duration
	Grow, Jitter float64
	Cap          time.Duration
	Budget       int
}

// Next returns the timeout to arm with the retransmission that follows a
// send armed with t.
func (b *Backoff) Next(t time.Duration, rng func() *rand.Rand) time.Duration {
	p := float64(t)
	next := b.Grow * p
	if b.Jitter != 0 {
		next += b.Jitter * rng().Float64() * p
	}
	if t = time.Duration(next); b.Cap > 0 && t > b.Cap {
		t = b.Cap
	}
	return t
}

// Spent reports whether n retransmissions use up the budget.
func (b *Backoff) Spent(n int) bool { return b.Budget > 0 && n >= b.Budget }

// Retry is one message's retransmission state, held by value. Its
// callback, the timeout armed with its latest send and its count of
// retransmissions live in one pooled event that stays with it from Start
// to Cancel across its firings, parked between a firing and the next Arm:
// arming allocates nothing. The zero Retry holds none.
type Retry struct{ Timer }

func (r Retry) live() *event {
	if ev := r.ev; ev != nil && ev.tid == r.tid && ev.kind == evRetry {
		return ev
	}
	return nil
}

// Start cancels r's retry, if any, and starts one on w that runs fn when
// b.First runs out.
func (r *Retry) Start(w *Wheel, b *Backoff, fn func()) {
	r.Cancel()
	ev := w.alloc()
	ev.kind, ev.fn, ev.n, ev.period, ev.at = evRetry, fn, 0, b.First, w.now+b.First
	w.schedule(ev)
	r.Timer = w.newTimer(ev)
}

// Advance counts a retransmission and makes b's next timeout the current
// one. It arms nothing.
func (r Retry) Advance(b *Backoff, rng func() *rand.Rand) {
	if ev := r.live(); ev != nil {
		ev.n++
		ev.period = b.Next(ev.period, rng)
	}
}

// Arm queues the current timeout from now, moving it if it is queued, and
// reports false when r holds no retry.
func (r Retry) Arm() bool {
	ev := r.live()
	if ev != nil && !r.Reschedule(ev.w.now+ev.period) {
		ev.at = ev.w.now + ev.period
		ev.w.schedule(ev)
	}
	return ev != nil
}

// Again is a retransmission: Advance, then Arm. It reports false, doing
// nothing, when r holds no retry.
func (r Retry) Again(b *Backoff, rng func() *rand.Rand) bool {
	r.Advance(b, rng)
	return r.Arm()
}

// Rewind counts from zero again: the next Arm arms b.First, and a queued
// timeout keeps its instant.
func (r Retry) Rewind(b *Backoff) {
	if ev := r.live(); ev != nil {
		ev.n, ev.period = 0, b.First
	}
}

// N returns the retransmissions so far: 0 once canceled.
func (r Retry) N() int {
	if ev := r.live(); ev != nil {
		return int(ev.n)
	}
	return 0
}
