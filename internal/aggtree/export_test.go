package aggtree

import (
	"fmt"
	"time"

	"repro/internal/simnet"
)

// RefreshOracle is the differential oracle of the refresh chains: it
// shadows every chain armRefresh starts with the per-vertex chain it
// replaced, a Wheel.Every of RefreshPeriod with its own tick counter, and
// reports every tick of the old chain that would have acted on an instant
// the new chain does not tick at. A tick acts when the query is past its
// TTL (it reclaims the vertex), or, with repair on, when the vertex is its
// root and has children and is dirty, on the safety pass, or not yet
// primary (the old tick made it so). The shadow only reads engine state.
type RefreshOracle struct {
	chains map[*vertexState]*shadowChain // each vertex's current life
	all    []*shadowChain                // every life shadowed so far
	faults []string

	// Ticks counts the events the refresh chains ran, OldTicks those the
	// old chains would have run, and Acting the old ticks that act.
	Ticks, OldTicks, Acting int
}

type shadowChain struct {
	v       *vertexState
	last    time.Duration // the instant of the new chain's latest tick
	primary bool          // the vertex's primary flag at that tick
	timer   simnet.Timer
}

// live reports whether the chain's vertex is still in the life it shadows:
// a released vertex is cleared, and a reused one has a chain of its own.
func (sc *shadowChain) live(o *RefreshOracle) bool {
	return sc.v.q != nil && o.chains[sc.v] == sc
}

// InstallRefreshOracle shadows every refresh chain armed until Close.
// Not safe for tests running in parallel: it sets package hooks.
func InstallRefreshOracle() *RefreshOracle {
	o := &RefreshOracle{chains: make(map[*vertexState]*shadowChain)}
	refreshArmed = o.armed
	refreshTicked = o.ticked
	return o
}

// Close removes the hooks and stops the shadows. It returns the first few
// discrepancies found, if any.
func (o *RefreshOracle) Close() []string {
	refreshArmed, refreshTicked = nil, nil
	for _, sc := range o.all {
		sc.timer.Cancel()
	}
	return o.faults
}

// Roles counts the vertex lives shadowed so far by their primary flag:
// now for a vertex still in its record, at its last tick for one that has
// left it.
func (o *RefreshOracle) Roles() (primaries, backups int) {
	for _, sc := range o.all {
		if sc.live(o) && sc.v.primary || !sc.live(o) && sc.primary {
			primaries++
		} else {
			backups++
		}
	}
	return primaries, backups
}

func (o *RefreshOracle) fault(format string, args ...any) {
	if len(o.faults) < 10 {
		o.faults = append(o.faults, fmt.Sprintf(format, args...))
	}
}

func (o *RefreshOracle) ticked(e *Engine, v *vertexState) {
	o.Ticks++
	if sc := o.chains[v]; sc != nil {
		sc.last, sc.primary = e.host.PastryNode().Sched().Now(), v.primary
	}
}

func (o *RefreshOracle) armed(e *Engine, v *vertexState, born time.Duration) {
	sc := &shadowChain{v: v, last: -1}
	o.chains[v] = sc
	o.all = append(o.all, sc)
	node := e.host.PastryNode()
	period := e.cfg.RefreshPeriod
	tick := int64(0)
	sc.timer = node.Sched().Every(period, func() {
		// The old chain's tick, read-only.
		if !node.Alive() {
			return
		}
		if !sc.live(o) {
			// The vertex left its record and was released, or serves
			// another life whose chain has its own shadow.
			sc.timer.Cancel()
			return
		}
		tick++
		o.OldTicks++
		now := node.Sched().Now()
		if n := int64((now - born) / period); n != tick {
			o.fault("%v ep %d vertex %s: the old chain's tick %d is tick %d of its phase",
				now, node.Endpoint(), v.id.Short(), tick, n)
		}
		expired := e.expired(v.q)
		root := node.IsRootOf(v.id) && len(v.children) > 0
		if !expired && (e.cfg.DisableRepair || !root || v.primary && !v.dirty && tick%3 != 0) {
			return
		}
		o.Acting++
		if at, ok := v.refresh.When(); sc.last != now && !(ok && at == now) {
			o.fault("%v ep %d vertex %s: skipped tick %d would act (expired %v, primary %v, dirty %v); next tick at %v",
				now, node.Endpoint(), v.id.Short(), tick, expired, v.primary, v.dirty, at)
		}
	})
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
		if _, armed := st.resubmit.When(); armed {
			n++
		}
	}
	return n
}
