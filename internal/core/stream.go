package core

// This file is the streaming result API. A QueryHandle records every
// incremental result in Results (the virtual-time-ordered update log);
// consumers either pull updates through a Subscription cursor or register
// an OnUpdate callback that fires synchronously, in virtual time, as the
// simulation delivers results.
//
// Everything here runs on the simulation's single driving goroutine (see
// simnet.Wheel), so no locking is needed — and none would help, since
// reading results from another goroutine mid-run would race with the
// scheduler anyway.

// Subscription is a pull cursor over a query's result updates in
// virtual-time order. Each call to Next returns the next update the
// cursor has not yet seen; a subscription opened after updates have
// already arrived replays them from the beginning of the log.
type Subscription struct {
	h      *QueryHandle
	cursor int
	closed bool
}

// Updates opens a subscription positioned at the start of the handle's
// update log.
func (h *QueryHandle) Updates() *Subscription {
	return &Subscription{h: h}
}

// Next returns the next unseen update. ok is false when the cursor has
// drained the log (more updates may arrive as the simulation advances —
// Next can be called again after RunUntil) or the subscription is closed.
func (s *Subscription) Next() (u ResultUpdate, ok bool) {
	if s.closed || s.cursor >= len(s.h.Results) {
		return ResultUpdate{}, false
	}
	u = s.h.Results[s.cursor]
	s.cursor++
	return u, true
}

// Pending returns how many updates Next would currently yield.
func (s *Subscription) Pending() int {
	if s.closed {
		return 0
	}
	return len(s.h.Results) - s.cursor
}

// Close ends the subscription; subsequent Next calls return ok=false.
func (s *Subscription) Close() { s.closed = true }

// updateCallback is one registered OnUpdate hook; canceled hooks are
// skipped (not compacted) so registration order is stable.
type updateCallback struct {
	fn       func(ResultUpdate)
	canceled bool
}

// OnUpdate registers fn to be invoked synchronously — at the virtual
// instant a result update is delivered to the injector — for every
// update from this point on. Updates already in the log are not
// replayed; drain Updates() first to catch up. Callbacks run in
// registration order, on the simulation goroutine: they may inspect the
// cluster but must not drive the scheduler. The returned function
// cancels the registration.
func (h *QueryHandle) OnUpdate(fn func(ResultUpdate)) (cancel func()) {
	cb := &updateCallback{fn: fn}
	h.callbacks = append(h.callbacks, cb)
	return func() { cb.canceled = true }
}

// deliver appends one update to the log and fires the registered
// callbacks. It is the single write path for the handle's result stream,
// which is what keeps Subscription cursors and the Results log
// consistent.
func (h *QueryHandle) deliver(u ResultUpdate) {
	h.Results = append(h.Results, u)
	for _, cb := range h.callbacks {
		if !cb.canceled {
			cb.fn(u)
		}
	}
}
