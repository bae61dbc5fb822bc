package simnet_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/aggtree"
	"repro/internal/dissem"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// The retransmission schedules as the protocols computed them before they
// shared simnet.Backoff. Each returns the timeout armed with send n (0 is
// the first send, n > 0 the n-th retransmission), given the one armed with
// the send before, and whether the retransmissions are spent at n: the
// next timeout gives up (or, for the ladder, none is armed).

// oldLeaf is aggtree's armResubmit: 20 s, tripled while under 9 min.
func oldLeaf(n int, _ time.Duration, _ *rand.Rand) (time.Duration, bool) {
	delay := 20 * time.Second
	for i := 0; i < n && delay < 9*time.Minute; i++ {
		delay *= 3
	}
	return delay, false
}

// oldLadder is aggtree's armReassert: rung n waits 10 s << n, five rungs.
func oldLadder(n int, _ time.Duration, _ *rand.Rand) (time.Duration, bool) {
	return 10 * time.Second << uint(n), n >= 5
}

// oldDissem is dissem's attemptTimeout, with the budget of a subrange
// (retries >= maxRetries) or of the injector (attempts > 2*maxRetries
// after the increment).
func oldDissem(budget int, disableBackoff bool) func(int, time.Duration, *rand.Rand) (time.Duration, bool) {
	return func(n int, prev time.Duration, rng *rand.Rand) (time.Duration, bool) {
		if n == 0 || disableBackoff {
			return 5 * time.Second, n >= budget
		}
		p := float64(prev)
		return min(time.Duration(2*p+rng.Float64()*p), 4*time.Minute), n >= budget
	}
}

// oldJoin is pastry's sendJoinRequest: joinRetryTimeout, ten per-hop
// timeouts of 1 s, every time.
func oldJoin(int, time.Duration, *rand.Rand) (time.Duration, bool) {
	return 10 * time.Second, false
}

// TestScheduleOracle replays each old schedule beside the Backoff value
// that replaced it: every timeout identical to the nanosecond, the budget
// spent at the same send, a jittered schedule drawing once per
// retransmission from a stream seeded like the old one (and the two
// streams at the same place after the last send), and a flat one drawing
// nothing.
func TestScheduleOracle(t *testing.T) {
	const seed = 11
	const maxRetries = 6
	resubmit, reassert := aggtree.Schedules()
	subrange, inject := dissem.Schedules(false)
	flatSubrange, flatInject := dissem.Schedules(true)
	for _, tc := range []struct {
		name     string
		b        simnet.Backoff
		old      func(int, time.Duration, *rand.Rand) (time.Duration, bool)
		sends    int
		jittered bool
	}{
		{"leaf", resubmit, oldLeaf, 12, false},
		{"ladder", reassert, oldLadder, 7, false},
		{"subrange", subrange, oldDissem(maxRetries, false), maxRetries, true},
		{"inject", inject, oldDissem(2*maxRetries, false), 2 * maxRetries, true},
		{"subrange-flat", flatSubrange, oldDissem(maxRetries, true), maxRetries, false},
		{"inject-flat", flatInject, oldDissem(2*maxRetries, true), 2 * maxRetries, false},
		{"join", pastry.JoinSchedule(), oldJoin, 12, false},
	} {
		oldRng, newRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		draws := 0
		stream := func() *rand.Rand { draws++; return newRng }
		var oldT, newT time.Duration
		for n := 0; n <= tc.sends; n++ {
			want, spent := tc.old(n, oldT, oldRng)
			got := tc.b.First
			if n > 0 {
				got = tc.b.Next(newT, stream)
			}
			if got != want {
				t.Errorf("%s: send %d arms %v, the old schedule %v", tc.name, n, got, want)
			}
			if tc.b.Spent(n) != spent {
				t.Errorf("%s: after %d retransmissions Spent is %v, the old schedule's %v", tc.name, n, tc.b.Spent(n), spent)
			}
			oldT, newT = want, got
		}
		if tc.jittered && draws != tc.sends || !tc.jittered && draws != 0 {
			t.Errorf("%s: %d draws over %d retransmissions, want one each with jitter, none without", tc.name, draws, tc.sends)
		}
		if oldRng.Float64() != newRng.Float64() {
			t.Errorf("%s: the streams are at different places after the last send", tc.name)
		}
	}
}

// TestRetryOnWheel arms the injector's schedule through a Retry on a
// wheel, retransmitting at every timeout until the budget is spent: the
// intervals between firings are the oracle's timeouts, drawn from the same
// stream, and the retry gives up at the timeout of its last
// retransmission.
func TestRetryOnWheel(t *testing.T) {
	_, b := dissem.Schedules(false)
	w := simnet.NewWheel()
	rng := rand.New(rand.NewSource(5))
	stream := func() *rand.Rand { return rng }
	var r simnet.Retry
	var fired []time.Duration
	r.Start(w, &b, func() {
		fired = append(fired, w.Now())
		if b.Spent(r.N()) {
			r.Cancel()
			return
		}
		r.Again(&b, stream)
	})
	w.Run()
	old, oldRng := oldDissem(b.Budget, false), rand.New(rand.NewSource(5))
	var at, prev time.Duration
	for n := 0; n <= b.Budget; n++ {
		d, _ := old(n, prev, oldRng)
		at, prev = at+d, d
		if n >= len(fired) || fired[n] != at {
			t.Fatalf("firings at %v, want timeout %d to run out at %v", fired, n, at)
		}
	}
	if len(fired) != b.Budget+1 || w.Pending() != 0 {
		t.Fatalf("%d firings and %d events left, want %d and none", len(fired), w.Pending(), b.Budget+1)
	}
}
