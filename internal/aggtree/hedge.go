// Hedged interior vertices: tail-tolerant aggregation.
//
// A single lossy or slow child stalls every interior vertex on its path to
// the root — the child's forward is the only copy of its subtree's
// aggregate until a refresh tick re-asserts it minutes later. Following
// the quantile-triggered hedging of tail-tolerant distributed search, each
// vertex primary keeps an O(1) per-child response-time distribution (an
// HDR log-linear histogram of inter-update gaps) and, when an awaited
// child stays silent past a configured quantile of its own history, pulls
// a duplicate answer — alternating between one of the child's advertised
// backup replicas (which dodges a slow, partitioned, or dead child) and
// the child's own primary (which alone can re-assert an aggregate whose
// forward and replication deltas died together in a correlated burst).
// The answer comes from replicated or authoritative versioned state; the
// versioned child table dedupes whichever answer lands second, so hedging
// can never double-count — it only substitutes an equivalent (or slightly
// stale, strictly subset) copy of state that already existed in the
// child's replica group.
//
// Hedges are budgeted by a per-vertex token bucket refilled by observed
// child traffic (default 5% extra pulls), cancel on first response (any
// message from the child resets the watch and the backoff), and respect a
// cold-start floor (no hedging until a child has HedgeMinObs gaps on
// record). Watch timers ride the owning node's shard-local scheduler
// wheel and replica choice draws from a per-vertex SplitSeed RNG stream,
// so hedged runs stay byte-deterministic at any engine shard count.
package aggtree

import (
	"math/rand"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// hedgeMinDeadline floors the hedge deadline so a burst of sub-millisecond
// gaps during the initial fan-in cannot arm hair-trigger watches that
// stampede replicas the instant a subtree finishes building.
const hedgeMinDeadline = 10 * time.Second

// hedgeMaxStrikes caps the exponential deadline backoff after consecutive
// hedges the child itself never answered (2^8 ≈ 43 min over a 10 s floor):
// a child that is truly done — or truly gone — stops costing pulls and is
// left to the refresh/takeover repair paths.
const hedgeMaxStrikes = 8

// hedgeReassertMax caps the upward re-assertion ladder (10 s << N over
// five rungs ≈ 10s/20s/40s/80s/160s): past that the unconditional refresh
// pass owns re-assertion anyway.
const hedgeReassertMax = 5

// childHedge is the per-child hedging state an interior vertex primary
// keeps alongside the versioned contribution: O(1) space per child.
type childHedge struct {
	// gaps is the inter-update gap distribution (virtual nanoseconds).
	gaps *obs.Histogram
	// last is when the child was last heard from; seen gates the first
	// gap observation (no gap exists before the second message).
	last time.Duration
	seen bool
	// msgs counts messages the child itself sent (the HedgeMinObs
	// cold-start floor counts contact, not gaps: under correlated burst
	// loss most children are heard exactly once before stalling, and a
	// heard-once child is precisely the one worth watching).
	msgs int
	// watch fires when the child overruns its predicted response
	// quantile; nil while disarmed.
	watch *simnet.Timer
	// backups is the child's advertised replica set. Leaf children never
	// advertise one — their contribution is a durable re-asserted record
	// with nothing for a replica to add — and are never hedged.
	backups []simnet.Endpoint
	// strikes counts consecutive hedges without any response from the
	// child, exponentially backing the deadline off.
	strikes int
}

// hedgePullMsg asks the primary or a replica of a quiet child vertex to
// answer with its copy of the child's contribution to Parent.
type hedgePullMsg struct {
	QID    ids.ID
	Vertex ids.ID // the awaited child vertex
	Parent ids.ID // the requesting vertex the answer contributes to
	// Have is the child-contribution version the requester already holds:
	// the version handshake that separates a stuck child (holder is ahead
	// — re-assert, a guaranteed recovery) from a merely quiet one (the
	// primary vouches currency with a hedgeAckMsg and the watch disarms).
	Have uint64
	// ReplyTo is the requesting primary's endpoint: the answer is a
	// direct send, not a route, so it cannot land at a different primary
	// than the one that asked.
	ReplyTo simnet.Endpoint
	// Cause is the hedge_issued span (trace metadata, excluded from wire
	// size by the same convention as submitMsg.Cause).
	Cause uint64
}

func hedgePullMsgSize() int { return 3*ids.Bytes + 8 + 4 }

// TraceQuery implements pastry.Traced; TraceSpan pastry.TracedSpan.
func (m *hedgePullMsg) TraceQuery() string { return m.QID.Short() }
func (m *hedgePullMsg) TraceSpan() uint64  { return m.Cause }

// hedgeAckMsg is the child primary's "nothing newer" reply to a hedge
// pull: it vouches that Version is the child's current contribution, so
// the requester can stand down the watch until the child next speaks.
type hedgeAckMsg struct {
	QID     ids.ID
	Vertex  ids.ID // the child vertex vouching for itself
	Parent  ids.ID // the requesting vertex
	Version uint64
	Cause   uint64
}

func hedgeAckMsgSize() int { return 3*ids.Bytes + 8 }

// TraceQuery implements pastry.Traced; TraceSpan pastry.TracedSpan.
func (m *hedgeAckMsg) TraceQuery() string { return m.QID.Short() }
func (m *hedgeAckMsg) TraceSpan() uint64  { return m.Cause }

// hedging reports whether the engine runs the hedging policy at all.
func (e *Engine) hedging() bool { return e.cfg.HedgeQuantile > 0 }

// observeChild processes the hedging side of any child message arriving at
// a vertex primary: the gap observation, the budget refill, the advertised
// replica set, and the watch reset (cancel-on-first-response). Called for
// duplicates too — a deduped message is still proof the child is alive.
func (e *Engine) observeChild(v *vertexState, m *submitMsg) {
	if !e.hedging() {
		return
	}
	now := e.host.PastryNode().Sched().Now()
	if v.hedge == nil {
		v.hedge = make(map[ids.ID]*childHedge)
		// The bucket starts full: a burst that stalls several children at
		// once hits hardest right at tree buildup, before any refill has
		// accrued — and every winning pull refunds its token, so a
		// productive opening volley sustains itself.
		v.tokens = e.cfg.HedgeBurst
		v.lastRefill = now
	}
	ch := v.hedge[m.Child]
	if ch == nil {
		ch = &childHedge{gaps: &obs.Histogram{}}
		v.hedge[m.Child] = ch
	}
	if m.Hedged {
		// A replica's answer proves the replica is alive, not the child: it
		// must not contaminate the child's own gap distribution, and it
		// must not reset the strike backoff — only the child speaking for
		// itself does that. Otherwise every wasted answer re-arms a
		// hair-trigger watch and the budget drains in a pull/answer loop.
	} else {
		if ch.seen {
			ch.gaps.Observe(int64(now - ch.last))
		}
		ch.seen = true
		ch.msgs++
		ch.strikes = 0
		if len(m.Backups) > 0 && !slicesEqualEP(ch.backups, m.Backups) {
			if ch.backups != nil {
				// The child's replica group changed — it re-rooted after
				// churn, or its leafset moved. Its historical response
				// distribution described the old incarnation; start fresh
				// so a rejoining child is not hedged on stale quantiles.
				ch.gaps = &obs.Histogram{}
			}
			ch.backups = append(ch.backups[:0], m.Backups...)
		}
	}
	ch.last = now
	e.armHedgeWatch(v, m.Child, ch)
}

// armHedgeWatch (re)starts the response watch for one child: when the
// child exceeds the configured quantile of its own inter-update gaps, the
// vertex hedges. Disarmed below the cold-start floor and for non-primaries.
func (e *Engine) armHedgeWatch(v *vertexState, child ids.ID, ch *childHedge) {
	if ch.watch != nil {
		ch.watch.Cancel()
		ch.watch = nil
	}
	if !v.primary || !e.hedging() {
		return
	}
	if len(ch.backups) == 0 {
		// No advertised replica group — a leaf child. Its contribution is a
		// durable re-asserted record, not replicated interior state: there
		// is nothing a hedge pull could recover that the contribution table
		// does not already hold.
		return
	}
	if ch.msgs < e.cfg.HedgeMinObs {
		return
	}
	if e.expired(e.queries[v.key.qid]) {
		return
	}
	deadline := time.Duration(ch.gaps.Quantile(e.cfg.HedgeQuantile))
	if deadline < hedgeMinDeadline {
		deadline = hedgeMinDeadline
	}
	if ceil := e.cfg.RefreshPeriod / 2; ceil > 0 && deadline > ceil {
		// The gap history eventually absorbs the child's own refresh
		// cadence, which would push the quantile past the organic repair
		// timescale and make every hedge moot. A pull is only useful if it
		// beats the next refresh re-assertion, so cap the base deadline
		// below it.
		deadline = ceil
	}
	strikes := ch.strikes
	if strikes > hedgeMaxStrikes {
		strikes = hedgeMaxStrikes
	}
	deadline <<= uint(strikes)
	node := e.host.PastryNode()
	ch.watch = node.Sched().After(deadline, func() {
		ch.watch = nil
		e.hedgeFire(v, child, ch, deadline)
	})
}

// hedgeFire runs when a watched child overran its deadline: spend a token
// and pull a duplicate answer from one of the child's replicas, then
// re-arm with backoff.
func (e *Engine) hedgeFire(v *vertexState, child ids.ID, ch *childHedge, deadline time.Duration) {
	node := e.host.PastryNode()
	if !node.Alive() {
		// Down endsystems do not hedge; a rejoin resets the tree anyway.
		return
	}
	if cur, ok := e.vertices[v.key]; !ok || cur != v || v.hedge[child] != ch {
		return
	}
	if !v.primary || e.expired(e.queries[v.key.qid]) {
		return
	}
	held, awaited := v.children.get(child)
	if !awaited {
		return
	}
	// Refill on virtual time, not on child traffic: the bucket must be
	// able to recover during exactly the silence that makes hedging
	// necessary. HedgeBudget tokens accrue per vertex-minute.
	now := node.Sched().Now()
	v.tokens = min(v.tokens+e.cfg.HedgeBudget*(now-v.lastRefill).Minutes(), e.cfg.HedgeBurst)
	v.lastRefill = now
	if v.tokens < 1 {
		// Budget exhausted: suppress, but keep watching at an unchanged
		// deadline — no pull went out, so nothing escalates; time refills
		// the bucket and winning pulls refund into it.
		e.cHedgeSuppressed.Inc()
		e.armHedgeWatch(v, child, ch)
		return
	}
	ch.strikes++
	v.tokens--
	v.issued++
	e.cHedgeIssued.Inc()
	span := e.o.EmitSpan(v.cause, obs.Event{Kind: obs.KindHedgeIssued,
		Query: e.o.QueryTag(v.key.qid), EP: int(node.Endpoint()),
		N: v.issued, V: deadline.Seconds()})
	msg := &hedgePullMsg{QID: v.key.qid, Vertex: child, Parent: v.key.vertex,
		Have: held.Version, ReplyTo: node.Endpoint(), Cause: span}
	if ch.strikes%2 == 1 {
		// Odd strikes (the first pull included) go to the child's own
		// primary. Burst loss is correlated: the forward that went missing
		// usually died alongside the replication deltas describing it,
		// leaving every backup stale — the primary alone can re-assert the
		// authoritative aggregate (at upVersion+1, burning the version so
		// its next organic forward cannot be deduped against the answer).
		node.Route(child, msg, hedgePullMsgSize(), simnet.ClassQuery)
	} else {
		// Even strikes pull one of the child's advertised replicas, chosen
		// by the per-vertex RNG stream (deterministic at any shard count;
		// randomized so repeated hedges spread over the group). A replica
		// in another region dodges a slow, partitioned, or dead child
		// outright.
		if v.hedgeRNG == nil {
			stream := int64(v.key.vertex.Lo ^ v.key.vertex.Hi ^ v.key.qid.Lo)
			v.hedgeRNG = rand.New(rand.NewSource(runner.SplitSeed(e.cfg.HedgeSeed, stream)))
		}
		target := ch.backups[v.hedgeRNG.Intn(len(ch.backups))]
		node.Ring().Network().Send(node.Endpoint(), target,
			hedgePullMsgSize(), simnet.ClassQuery, msg)
	}
	e.armHedgeWatch(v, child, ch)
}

// handleHedgePull answers a hedge pull from replicated state. A backup
// holding the child vertex answers with its children table's aggregate at
// upVersion+1: the replica's upVersion trails the primary's last forwarded
// version by exactly one (replicateDelta sends the pre-increment value
// before forwardUp increments), so the answer collides with the version
// the primary last sent — if that forward arrived, the answer dedupes as
// wasted; if it was lost, the answer advances the parent with the same
// content. The answer is a full versioned replacement keyed by the same
// child id, so even a stale replica (a lost replication) can only
// under-report, never double-count.
func (e *Engine) handleHedgePull(m *hedgePullMsg) {
	node := e.host.PastryNode()
	if !node.Alive() {
		return
	}
	info := e.queries[m.QID]
	if e.expired(info) {
		return
	}
	if v, ok := e.vertices[vertexKey{qid: m.QID, vertex: m.Vertex}]; ok && len(v.children) > 0 {
		if v.primary && v.upVersion <= m.Have {
			// The requester already holds everything this child has ever
			// forwarded: the child is quiet because it is done, not stuck.
			// Vouch for the version so the requester stands its watch down
			// instead of spending budget re-probing a current child.
			e.cHedgeAcked.Inc()
			node.Ring().Network().Send(node.Endpoint(), m.ReplyTo,
				hedgeAckMsgSize(), simnet.ClassQuery,
				&hedgeAckMsg{QID: m.QID, Vertex: m.Vertex, Parent: m.Parent,
					Version: m.Have, Cause: m.Cause})
			return
		}
		if !v.primary && v.upVersion+1 <= m.Have {
			// A stale replica (its delta died with the forward it
			// described) has nothing the requester lacks — but unlike the
			// primary it cannot vouch that nothing newer exists, so it
			// stays silent and the requester's backoff escalates.
			return
		}
		part, contributors := v.aggregate()
		answer := &submitMsg{QID: m.QID, Vertex: m.Parent, Child: m.Vertex,
			C:        contribution{Version: v.upVersion + 1, Part: part, Contributors: contributors},
			Injector: info.injector, Query: info.query, Cause: m.Cause, Hedged: true}
		if v.primary {
			// Burn the version just used so the primary's next organic
			// forward cannot collide with this answer and be deduped away.
			v.upVersion++
		}
		node.Ring().Network().Send(node.Endpoint(), m.ReplyTo,
			submitMsgSize(0), simnet.ClassQuery, answer)
	}
	// A holder that never received the vertex's replication has nothing to
	// answer from; the pull is simply dropped and the requester's backoff
	// retries against another member of the group.
}

// applyHedgeAck stands down the watch on a child whose primary vouched
// that the requester's held version is current. The version match makes
// the ack safe against races: if the child spoke organically while the ack
// was in flight, the versions differ and the fresh watch stays armed. The
// next message from the child re-arms the watch through observeChild.
func (e *Engine) applyHedgeAck(m *hedgeAckMsg) {
	v, ok := e.vertices[vertexKey{qid: m.QID, vertex: m.Parent}]
	if !ok || !v.primary {
		return
	}
	ch := v.hedge[m.Vertex]
	if held, _ := v.children.get(m.Vertex); ch == nil || held.Version != m.Version {
		return
	}
	ch.strikes = 0
	if ch.watch != nil {
		ch.watch.Cancel()
		ch.watch = nil
	}
}

// armReassert (re)starts the upward re-assertion ladder after a remote
// forward: if no newer content supersedes it before the rung's deadline,
// the forward is retransmitted. This is the child-side complement of the
// parent's hedge watch — a parent cannot hedge a child it has never heard
// from, which is exactly what a correlated burst that kills a subtree's
// first forward (and its replication deltas) produces.
func (e *Engine) armReassert(v *vertexState) {
	if v.reassert != nil {
		v.reassert.Cancel()
		v.reassert = nil
	}
	if !e.hedging() || v.reassertN >= hedgeReassertMax {
		return
	}
	delay := hedgeMinDeadline << uint(v.reassertN)
	v.reassert = e.host.PastryNode().Sched().After(delay, func() {
		v.reassert = nil
		e.reassertFire(v)
	})
}

// reassertFire retransmits the vertex's last forward up the tree. forwardUp
// re-arms the ladder at the next rung.
func (e *Engine) reassertFire(v *vertexState) {
	node := e.host.PastryNode()
	if !node.Alive() {
		return
	}
	if cur, ok := e.vertices[v.key]; !ok || cur != v || !v.primary {
		return
	}
	if e.expired(e.queries[v.key.qid]) {
		return
	}
	v.reassertN++
	e.cHedgeReasserts.Inc()
	e.forwardUp(v)
}

// clearHedge cancels every hedge watch timer and the re-assertion ladder,
// and drops the per-child distributions — on restart, cancel, expiry,
// takeover, and loss of the primary role. Timer cleanup here is what the
// no-leaked-timers tests assert.
func (e *Engine) clearHedge(v *vertexState) {
	if v.reassert != nil {
		v.reassert.Cancel()
		v.reassert = nil
	}
	v.reassertN = 0
	if v.hedge == nil {
		return
	}
	for _, ch := range v.hedge {
		if ch.watch != nil {
			ch.watch.Cancel()
			ch.watch = nil
		}
	}
	v.hedge = nil
	v.hedgeRNG = nil
	v.tokens = 0
}

// HedgeTimers reports how many hedge watch timers are currently armed
// across every vertex this engine hosts (test instrumentation for the
// cancel-on-first-response / no-leak invariants).
func (e *Engine) HedgeTimers() int {
	n := 0
	for _, v := range e.vertices {
		if v.reassert != nil {
			n++
		}
		for _, ch := range v.hedge {
			if ch.watch != nil {
				n++
			}
		}
	}
	return n
}

// ResubmitTimers reports how many leaf re-assertion timers are live (test
// instrumentation: the resubmit map must not leak timers across cancels,
// restarts, or hedge-triggered takeovers).
func (e *Engine) ResubmitTimers() int {
	n := 0
	for _, st := range e.resubmit {
		if st.timer != nil {
			n++
		}
	}
	return n
}

func slicesEqualEP(a, b []simnet.Endpoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
