package simnet

import (
	"testing"
	"time"
)

// poolDistinct fails if an event sits in the wheel's pool twice: a retry
// recycled by its firing after its holder had re-armed and canceled it.
func poolDistinct(t *testing.T, w *Wheel) {
	t.Helper()
	seen := map[*event]bool{}
	for ev := w.free; ev != nil; ev = ev.next {
		if seen[ev] {
			t.Fatal("an event is in the pool twice")
		}
		seen[ev] = true
	}
}

// TestRetryLifecycle drives one Retry through its life: Start arms First,
// each Again the schedule's next timeout on the same event; a firing that
// neither re-arms nor cancels parks it with its count; Arm re-arms it from
// there with its current timeout; Rewind restarts the count and leaves a
// queued timeout where it is; Cancel of a parked retry returns its event to
// the pool. Once warm, none of it allocates.
func TestRetryLifecycle(t *testing.T) {
	w := NewWheel()
	b := Backoff{First: time.Second, Grow: 2, Budget: 3}
	var r Retry
	var fired []time.Duration
	again := true
	fn := func() {
		fired = append(fired, w.Now())
		if again && !b.Spent(r.N()) {
			r.Again(&b, nil)
		}
	}
	r.Start(w, &b, fn)
	ev := r.ev
	w.Run()
	want := []time.Duration{time.Second, 3 * time.Second, 7 * time.Second, 15 * time.Second}
	if len(fired) != len(want) || fired[3] != want[3] || r.N() != 3 || r.ev != ev {
		t.Fatalf("fired at %v with %d retransmissions, want %v and 3 on one event", fired, r.N(), want)
	}
	if _, armed := r.When(); armed || w.Pending() != 0 || ev.where != inParked {
		t.Fatal("a spent retry is still queued, or not parked")
	}
	if !r.Arm() {
		t.Fatal("Arm found no retry to re-arm")
	}
	if at, _ := r.When(); at != 23*time.Second {
		t.Fatalf("re-armed for %v, want the current timeout, 8s, from 15s", at)
	}
	r.Rewind(&b)
	if at, _ := r.When(); r.N() != 0 || at != 23*time.Second {
		t.Fatalf("Rewind left %d retransmissions and the timeout at %v", r.N(), at)
	}
	again = false
	w.Run()
	if r.N() != 0 || ev.where != inParked || fired[len(fired)-1] != 23*time.Second {
		t.Fatal("the rewound retry did not fire at its instant and park")
	}
	if r.Cancel() || w.free != ev || r.N() != 0 || r.Arm() {
		t.Fatal("canceling a parked retry did not return its event to the pool and end it")
	}
	if a := testing.AllocsPerRun(100, func() {
		r.Start(w, &b, fn)
		w.RunUntil(w.Now() + time.Second)
		r.Again(&b, nil)
		r.Cancel()
		w.Run()
	}); a != 0 {
		t.Errorf("a warm retry allocates %v per life, want 0", a)
	}
}

// TestRetryRearmedThenCanceled: a firing that re-arms its retry and then
// cancels it (a retransmission answered at once) leaves the event to the
// queue, inside the wheel's window or beyond it, so it is recycled once:
// the pool holds no event twice and later timers run in order.
func TestRetryRearmedThenCanceled(t *testing.T) {
	for _, first := range []time.Duration{time.Second, time.Minute} {
		w := NewWheel()
		b := Backoff{First: first, Grow: 1}
		var r Retry
		r.Start(w, &b, func() {
			r.Again(&b, nil)
			r.Cancel()
		})
		w.Run()
		poolDistinct(t, w)
		var order []int
		w.After(2*time.Second, func() { order = append(order, 2) })
		w.After(time.Second, func() { order = append(order, 1) })
		w.Run()
		if len(order) != 2 || order[0] != 1 || w.Pending() != 0 {
			t.Fatalf("first timeout %v: later timers ran %v with %d left", first, order, w.Pending())
		}
	}
}
