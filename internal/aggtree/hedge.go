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

import "time"

// reassertBase is the first rung of the ladder; rung n fires
// reassertBase << n after the forward it protects.
const reassertBase = 10 * time.Second

// reassertMax caps the ladder at five rungs (10s/20s/40s/80s/160s): past
// that the unconditional refresh pass owns re-assertion anyway.
const reassertMax = 5

// armReassert (re)starts the ladder after a remote forward: if no newer
// content supersedes it before the rung's deadline, the forward is
// retransmitted.
func (e *Engine) armReassert(v *vertexState) {
	v.reassert.Cancel()
	if !e.cfg.Reassert || v.reassertN >= reassertMax {
		return
	}
	delay := reassertBase << uint(v.reassertN)
	v.reassert = e.host.PastryNode().Sched().After(delay, func() { e.reassertFire(v) })
}

// reassertFire retransmits the vertex's last forward up the tree. forwardUp
// re-arms the ladder at the next rung.
func (e *Engine) reassertFire(v *vertexState) {
	node := e.host.PastryNode()
	if !node.Alive() {
		return
	}
	if !v.primary || e.expired(v.q) {
		return
	}
	v.reassertN++
	e.cReasserts.Inc()
	e.forwardUp(v)
}

// clearHedge cancels the re-assertion ladder and resets its rung — on
// restart, cancel, expiry, takeover, and loss of the primary role. Timer
// cleanup here is what the no-leaked-timers tests assert.
func (e *Engine) clearHedge(v *vertexState) {
	v.reassert.Cancel()
	v.reassertN = 0
}

// HedgeTimers reports how many re-assertion timers are currently armed
// across every vertex this engine hosts (test instrumentation for the
// no-leak invariants).
func (e *Engine) HedgeTimers() int {
	return e.countVertices(func(v *vertexState) bool { _, armed := v.reassert.When(); return armed })
}

// FlushTimers reports how many coalesced-replication flushes are pending
// across every vertex this engine hosts (test instrumentation, as above).
func (e *Engine) FlushTimers() int {
	return e.countVertices(func(v *vertexState) bool { _, armed := v.flush.When(); return armed })
}

func (e *Engine) countVertices(pred func(*vertexState) bool) int {
	n := 0
	for _, st := range e.queries {
		if st == nil {
			continue
		}
		for _, v := range st.vertices {
			if pred(v) {
				n++
			}
		}
	}
	return n
}

// ResubmitTimers reports how many leaf re-assertion timers are live (test
// instrumentation: a record must not leak its timer across cancels,
// restarts, or takeovers).
func (e *Engine) ResubmitTimers() int {
	n := 0
	for _, st := range e.queries {
		if st == nil {
			continue
		}
		if _, armed := st.resubmit.When(); armed {
			n++
		}
	}
	return n
}
