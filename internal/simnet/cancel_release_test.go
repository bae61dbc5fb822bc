//go:build go1.24

package simnet

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// captured is what a test callback holds on to.
type captured struct {
	fired int
	_     [56]byte
}

// armHolding schedules a callback that captures a fresh object, and counts
// its firings in ran, and returns the timer with a weak pointer to the
// object: nothing but the callback keeps the object alive once this
// returns.
//
//go:noinline
func armHolding(s *Wheel, d time.Duration, ran *int) (Timer, weak.Pointer[captured]) {
	c := &captured{}
	return s.After(d, func() { c.fired++; *ran++ }), weak.Make(c)
}

// TestCancelReleasesCallback: a canceled timer must not keep what its
// callback captured alive, wherever its event is queued. One canceled
// beyond the wheel's window leaves the overflow heap, and Pending, at once;
// one canceled inside the window stays queued until its tick is drained,
// and lets go of its callback all the same. A timer that is not canceled
// does keep it, which is what makes the first checks mean something.
func TestCancelReleasesCallback(t *testing.T) {
	s := NewWheel()
	ran := 0
	far, farGone := armHolding(s, 4*time.Minute, &ran)
	near, nearGone := armHolding(s, 10*time.Second, &ran)
	_, kept := armHolding(s, 4*time.Minute, &ran)
	if s.Pending() != 3 {
		t.Fatalf("%d events queued, want 3", s.Pending())
	}
	if !far.Cancel() {
		t.Fatal("Cancel of a pending far-future timer returned false")
	}
	if s.Pending() != 2 {
		t.Fatalf("%d events queued after canceling the far-future timer, want 2: it must leave at once", s.Pending())
	}
	if !near.Cancel() {
		t.Fatal("Cancel of a pending in-window timer returned false")
	}
	if s.Pending() != 2 {
		t.Fatalf("%d events queued after canceling the in-window timer, want 2: it is discarded at its tick", s.Pending())
	}
	runtime.GC()
	if farGone.Value() != nil {
		t.Fatal("a canceled far-future timer's callback kept what it captured alive")
	}
	if nearGone.Value() != nil {
		t.Fatal("a canceled in-window timer's callback kept what it captured alive until its instant")
	}
	if kept.Value() == nil {
		t.Fatal("a pending timer's callback lost what it captured")
	}
	if n := s.RunUntil(time.Minute); n != 0 || s.Pending() != 1 {
		t.Fatalf("%d events ran and %d queued past the in-window instant, want 0 and the pending timer's", n, s.Pending())
	}
	if n := s.RunUntil(5 * time.Minute); n != 1 || ran != 1 {
		t.Fatalf("%d events ran and %d callbacks, want the pending timer's alone", n, ran)
	}
}
