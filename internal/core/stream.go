package core

// This file is the streaming result API. A QueryHandle records every
// incremental result in Results (the virtual-time-ordered update log) and
// fires the OnUpdate callbacks synchronously, in virtual time, as the
// simulation delivers results.
//
// Everything here runs on the simulation's single driving goroutine (see
// simnet.Wheel), so no locking is needed — and none would help, since
// reading results from another goroutine mid-run would race with the
// scheduler anyway.

// OnUpdate registers fn to be invoked synchronously — at the virtual
// instant a result update is delivered to the injector — for every
// update from this point on. Updates already in Results are not
// replayed. Callbacks run in registration order, on the simulation
// goroutine: they may inspect the cluster but must not drive the
// scheduler.
func (h *QueryHandle) OnUpdate(fn func(ResultUpdate)) {
	h.callbacks = append(h.callbacks, fn)
}

// deliver appends one update to the log and fires the registered
// callbacks. It is the single write path for the handle's result stream,
// which is what keeps the callbacks and the Results log consistent.
func (h *QueryHandle) deliver(u ResultUpdate) {
	h.Results = append(h.Results, u)
	for _, fn := range h.callbacks {
		fn(u)
	}
}
