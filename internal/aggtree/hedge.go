// Tail-tolerant aggregation: the upward re-assertion ladder.
//
// A vertex's routed forward is the only copy of its subtree's aggregate on
// its way to the parent: if the network drops it, the parent learns
// nothing until the unconditional refresh pass re-asserts it minutes
// later, and every vertex above waits with it. With Config.Reassert a
// vertex primary hedges its own forward instead: a remote forward that no
// newer content supersedes is retransmitted 10, 20, 40, 80 and 160 s after
// it was sent. Each retransmission is a full forwardUp at the next
// version, so the parent's versioned child table counts whichever copy
// lands first and records the rest as refreshes — the ladder can delay
// nothing and double-count nothing. Its timers ride the simulation's one
// wheel, so runs with it on stay byte-deterministic per seed.
package aggtree

import (
	"time"

	"repro/internal/simnet"
)

// reassertSchedule is the ladder: a forward is retransmitted 10, 20, 40,
// 80 and 160 s after the send before it. Past the fifth rung the
// unconditional refresh pass owns re-assertion, and the ladder's give-up
// does nothing, so no timeout is armed for it.
var reassertSchedule = simnet.Backoff{First: 10 * time.Second, Grow: 2, Budget: 5}

// armReassert (re)arms the ladder's current rung after a remote forward:
// if no newer content supersedes the forward before the rung runs out, it
// is retransmitted.
func (e *Engine) armReassert(v *vertexState) {
	if !e.cfg.Reassert || reassertSchedule.Spent(v.reassert.N()) || v.reassert.Arm() {
		return
	}
	v.reassert.Start(e.node.Sched(), &reassertSchedule, func() { e.reassertFire(v) })
}

// reassertFire retransmits the vertex's last forward up the tree, one rung
// up. forwardUp re-arms the ladder if the forward is remote; a vertex that
// is no longer a live primary keeps its rung and arms nothing.
func (e *Engine) reassertFire(v *vertexState) {
	if !e.node.Alive() || !v.primary || e.expired(v.q) {
		return
	}
	v.reassert.Advance(&reassertSchedule, nil)
	e.cReasserts.Inc()
	e.forwardUp(v)
}
