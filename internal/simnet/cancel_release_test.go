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

// TestCancelReleasesCallback: a canceled timer's event stays queued until
// its instant, for the queue discards canceled events lazily, and one
// canceled minutes ahead of its instant must not keep what its callback
// captured alive until then. A timer that is not canceled does keep it,
// which is what makes the first check mean something.
func TestCancelReleasesCallback(t *testing.T) {
	s := NewWheel()
	ran := 0
	canceled, gone := armHolding(s, 4*time.Minute, &ran)
	_, kept := armHolding(s, 4*time.Minute, &ran)
	if !canceled.Cancel() {
		t.Fatal("Cancel of a pending timer returned false")
	}
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("a canceled timer's callback kept what it captured alive until its instant")
	}
	if kept.Value() == nil {
		t.Fatal("a pending timer's callback lost what it captured")
	}
	if s.Pending() != 2 {
		t.Fatalf("%d events queued, want the canceled one and the pending one", s.Pending())
	}
	if n := s.RunUntil(5 * time.Minute); n != 1 || ran != 1 {
		t.Fatalf("%d events ran and %d callbacks, want the pending timer's alone", n, ran)
	}
}
