package simnet

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewWheel()
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulerFIFOAmongSameTime(t *testing.T) {
	s := NewWheel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewWheel()
	s.At(10*time.Second, func() {})
	s.Run()
	fired := time.Duration(-1)
	s.At(time.Second, func() { fired = s.Now() }) // in the past
	s.Run()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamped to now (10s)", fired)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewWheel()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	n := s.RunUntil(5 * time.Second)
	if n != 5 || count != 5 {
		t.Fatalf("ran %d events (count %d), want 5", n, count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
	s.RunUntil(20 * time.Second)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if s.Now() != 20*time.Second {
		t.Fatalf("clock should advance to deadline, got %v", s.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewWheel()
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel should return true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

// TestTimerCancelReportsFiring: Cancel reports whether it stopped a firing.
// A one-shot that already fired, a copy of a handle another copy canceled
// and the zero Timer all stop nothing — even after the fired event's pooled
// struct is reused by a later timer, which the stale handle must not touch.
func TestTimerCancelReportsFiring(t *testing.T) {
	s := NewWheel()
	if (Timer{}).Cancel() {
		t.Fatal("the zero Timer's Cancel returned true")
	}
	fired := 0
	done := s.After(time.Second, func() { fired++ })
	s.Run()
	if done.Cancel() {
		t.Fatal("Cancel of a fired one-shot returned true")
	}
	later := s.After(time.Second, func() { fired++ }) // reuses the pooled event
	if done.Cancel() {
		t.Fatal("a stale handle cancelled the event's next timer")
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
	if later.Cancel() {
		t.Fatal("Cancel of the second fired one-shot returned true")
	}

	pending := s.After(time.Second, func() { fired++ })
	cp := pending
	if !cp.Cancel() {
		t.Fatal("Cancel of a pending timer through a copy returned false")
	}
	if pending.Cancel() {
		t.Fatal("the original handle cancelled again after its copy did")
	}
	s.Run()
	if fired != 2 {
		t.Fatal("canceled event fired")
	}
}

// TestSchedulerSteadyStateAllocs: once the event pool is warm, scheduling
// and cancelling a one-shot, firing one, and an Every chain allocate
// nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewWheel()
	fn := func() {}
	cases := []struct {
		name string
		run  func()
	}{
		{"At+Cancel", func() {
			s.At(s.Now()+time.Millisecond, fn).Cancel()
			s.RunUntil(s.Now() + 2*time.Millisecond)
		}},
		{"After fired", func() {
			s.After(time.Millisecond, fn)
			s.RunUntil(s.Now() + 2*time.Millisecond)
		}},
		{"After+Cancel overflow", func() { // a far-future event in the overflow heap
			s.After(time.Hour, fn).Cancel()
			s.RunUntil(s.Now() + time.Hour + time.Millisecond)
		}},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(100, c.run); a != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, a)
		}
	}
	ticks := 0
	tm := s.Every(time.Second, func() { ticks++ })
	if a := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + time.Second) }); a != 0 {
		t.Errorf("Every chain: %v allocations per tick, want 0", a)
	}
	if !tm.Cancel() || ticks != 101 {
		t.Fatalf("Every chain ticked %d times, or was no longer pending", ticks)
	}
}

func TestEvery(t *testing.T) {
	s := NewWheel()
	count := 0
	var tm Timer
	tm = s.Every(time.Second, func() {
		count++
		if count == 5 {
			tm.Cancel()
		}
	})
	s.RunUntil(time.Minute)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestEveryCancelBeforeFirstFire(t *testing.T) {
	s := NewWheel()
	count := 0
	tm := s.Every(time.Second, func() { count++ })
	tm.Cancel()
	s.RunUntil(time.Minute)
	if count != 0 {
		t.Fatalf("count = %d, want 0", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewWheel()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if s.Now() != 99*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulerRejectsConcurrentDrivers(t *testing.T) {
	// Two goroutines driving one scheduler is exactly the sharing mistake
	// a parallel sweep could make; the scheduler must detect it rather
	// than silently produce nondeterministic results.
	s := NewWheel()
	entered := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	s.At(time.Second, func() {
		close(entered)
		<-release
	})
	go func() {
		defer close(firstDone)
		s.RunUntil(10 * time.Second)
	}()
	<-entered // the first driver is now inside RunUntil

	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		s.RunUntil(20 * time.Second)
	}()
	if !<-panicked {
		t.Fatal("second concurrent driver did not panic")
	}
	close(release)
	<-firstDone

	// After the drivers are gone the scheduler is usable again.
	fired := false
	s.At(2*time.Second, func() { fired = true })
	s.RunUntil(30 * time.Second)
	if !fired {
		t.Fatal("scheduler unusable after concurrent-driver panic")
	}
}

// TestEveryCancelFromWithinTick cancels a periodic timer from inside its
// own tick callback. The cancel must win the race against the re-arm: no
// further tick may fire, and the pooled event must not be resurrected.
func TestEveryCancelFromWithinTick(t *testing.T) {
	s := NewWheel()
	fires := 0
	var tm Timer
	tm = s.Every(time.Second, func() {
		fires++
		if fires == 3 {
			if !tm.Cancel() {
				t.Fatal("Cancel from within tick returned false")
			}
		}
	})
	s.RunUntil(time.Minute)
	if fires != 3 {
		t.Fatalf("periodic fired %d times after in-tick cancel at 3, want exactly 3", fires)
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
}

// TestEveryPeriodPreservation checks that re-arming keeps the exact period
// over many firings (no drift, no skipped ticks) even when the period is
// not a multiple of the wheel tick and the horizon spans many wheel
// rotations.
func TestEveryPeriodPreservation(t *testing.T) {
	s := NewWheel()
	const period = 700*time.Millisecond + 137*time.Microsecond
	var at []time.Duration
	s.Every(period, func() { at = append(at, s.Now()) })
	const horizon = 2 * time.Minute
	s.RunUntil(horizon)
	want := int(horizon / period)
	if len(at) != want {
		t.Fatalf("fired %d times over %v, want %d", len(at), horizon, want)
	}
	for i, got := range at {
		if exp := time.Duration(i+1) * period; got != exp {
			t.Fatalf("firing %d at %v, want %v (drift)", i, got, exp)
		}
	}
}

// TestRunUntilMidTickLeftovers is a regression test for deadline handling:
// a RunUntil deadline that lands inside an occupied wheel tick must leave
// the remaining same-tick events pending, and events scheduled afterwards
// between the deadline and the leftovers must still fire in time order.
func TestRunUntilMidTickLeftovers(t *testing.T) {
	s := NewWheel()
	var order []string
	s.At(1400*time.Microsecond, func() { order = append(order, "a") })
	if n := s.RunUntil(1100 * time.Microsecond); n != 0 {
		t.Fatalf("ran %d events before deadline, want 0", n)
	}
	if s.Now() != 1100*time.Microsecond {
		t.Fatalf("now = %v, want deadline 1100µs", s.Now())
	}
	s.At(1200*time.Microsecond, func() { order = append(order, "b") })
	s.At(500*time.Microsecond, func() { order = append(order, "c") }) // past: runs at now
	s.RunUntil(2 * time.Millisecond)
	if got, want := len(order), 3; got != want {
		t.Fatalf("fired %d events, want %d (%v)", got, want, order)
	}
	if order[0] != "c" || order[1] != "b" || order[2] != "a" {
		t.Fatalf("order = %v, want [c b a]", order)
	}
}
