package pastry

import (
	"slices"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// tableEntry is one routing table slot.
type tableEntry struct {
	NodeRef
	ok bool
}

// maxHops bounds routing (including stale-entry retries) to catch protocol
// bugs; real routes take O(log N) hops.
const maxHops = 64

// Node is one overlay endsystem. All methods must be called from simulator
// events (the simulation is single-threaded under one wheel).
type Node struct {
	ring  *Ring
	ep    simnet.Endpoint
	id    ids.ID
	app   Application
	alive bool
	// joining and bounded share alive's word: joining is the join
	// protocol's state (joinRetry), bounded the leafset arc's (arcLo).
	joining bool
	bounded bool

	leaf []NodeRef // leafset: l/2 nearest per side, sorted by ID
	// reported is the leafset the application was last told of (see
	// installLeafset). Start keeps it: a rejoin reports against the
	// leafset the node held before it went down.
	reported []NodeRef
	rows     []*tableRow // routing table rows, arena-allocated as needed

	// The leafset's namespace arc, which inLeafsetSpan tests: arcLen
	// clockwise from arcLo. bounded is false while the leafset holds fewer
	// than l members, and the arc is then the whole ring. setArc recomputes
	// them on every change to leaf.
	arcLo, arcLen ids.ID

	// OnReady, if set, is called once the node has joined the overlay and
	// is routable (immediately for bootstrap starts, after the join
	// protocol completes otherwise).
	OnReady func()

	joinRetry simnet.Retry
}

// ID returns the node's endsystemId.
func (n *Node) ID() ids.ID { return n.id }

// Ring returns the ring the node belongs to.
func (n *Node) Ring() *Ring { return n.ring }

// Endpoint returns the node's network attachment.
func (n *Node) Endpoint() simnet.Endpoint { return n.ep }

// Sched returns the wheel this node's timers run on. Layers above the
// overlay (metadata, dissemination, aggregation) schedule through it.
func (n *Node) Sched() *simnet.Wheel { return n.ring.sched }

// Ref returns the node's NodeRef.
func (n *Node) Ref() NodeRef { return NodeRef{ID: n.id, EP: n.ep} }

// Alive reports whether the node is currently up.
func (n *Node) Alive() bool { return n.alive }

// LeafsetView returns the node's current leafset members, sorted by id,
// without copying. The slice is the node's own: read-only, and good only
// until the node next handles an event. It is for per-message paths that
// just iterate or search.
func (n *Node) LeafsetView() []NodeRef { return n.leaf }

// InReportedLeafset reports whether id is in the leafset the application
// was last told of.
func (n *Node) InReportedLeafset(id ids.ID) bool { return hasID(n.reported, id) }

// LeafsetDelta returns who entered the leafset and who left it since the
// application was last told of it; inside a LeafsetChanged upcall, the
// change being reported (both empty when the upcall reports none). Each is
// sorted by id. They are the ring's scratch, good until the next
// LeafsetDelta call on any node of the ring.
func (n *Node) LeafsetDelta() (added, removed []NodeRef) {
	d := n.ring.delta[:0]
	for _, m := range n.leaf {
		if !hasID(n.reported, m.ID) {
			d = append(d, m)
		}
	}
	k := len(d)
	for _, m := range n.reported {
		if !hasID(n.leaf, m.ID) {
			d = append(d, m)
		}
	}
	n.ring.delta = d
	return d[:k:k], d[k:]
}

// hasID reports whether id is one of refs, which are sorted by id.
func hasID(refs []NodeRef, id ids.ID) bool {
	_, ok := slices.BinarySearchFunc(refs, id, func(m NodeRef, id ids.ID) int { return m.ID.Cmp(id) })
	return ok
}

// AppendKnownInRange appends the nodes this node's own routing state —
// leafset plus routing-table rows — knows inside the inclusive linear id
// range [lo, hi], deduplicated and sorted by id, and returns the extended
// slice. An empty result just means the caller falls back to id
// arithmetic.
func (n *Node) AppendKnownInRange(dst []NodeRef, lo, hi ids.ID) []NodeRef {
	start := len(dst)
	for _, m := range n.leaf {
		if m.ID.InRange(lo, hi) {
			dst = append(dst, m)
		}
	}
	for _, row := range n.rows {
		for d := range row {
			if e := &row[d]; e.ok && e.ID.InRange(lo, hi) {
				dst = append(dst, e.NodeRef)
			}
		}
	}
	out := dst[start:]
	slices.SortFunc(out, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	return dst[:start+len(slices.CompactFunc(out, func(a, b NodeRef) bool { return a.ID == b.ID }))]
}

// AppendClosest appends the k nodes numerically closest to key among the
// leafset members, and self when withSelf is set, and returns the extended
// slice: a subject's metadata replica set (§3.2.2) and a vertex's backups
// (§3.4). The candidates are laid out in leafset (id) order, then self,
// before the sort, so members equally far from key keep one order from
// call to call. Callers on hot paths reuse dst across calls.
func (n *Node) AppendClosest(dst []NodeRef, key ids.ID, k int, withSelf bool) []NodeRef {
	start := len(dst)
	dst = append(dst, n.leaf...)
	if withSelf {
		dst = append(dst, n.Ref())
	}
	out := dst[start:]
	slices.SortFunc(out, func(a, b NodeRef) int {
		return key.AbsDistance(a.ID).Cmp(key.AbsDistance(b.ID))
	})
	return dst[:start+min(k, len(out))]
}

// StartBootstrap brings the node up as part of the initial population,
// installing overlay state directly with no protocol traffic: this is the
// simulation's initial condition, not an event within it. The ring's
// ground-truth index must already contain the full initial population
// (see Ring.BootstrapAll).
func (n *Node) StartBootstrap() {
	n.alive = true
	n.joining = false
	n.installLeafset(n.ring.liveLeafNeighbors(n.ring.cands[:0], n.ep, n.id), bootstrap)
	n.rows, _ = n.ring.buildRoutingTable(n.id, n.ring.newRow)
	if n.OnReady != nil {
		n.OnReady()
	}
}

// BootstrapAll starts every node in eps simultaneously as the initial
// overlay population. The live index is built in bulk — append all, sort
// once — because inserting a sorted slice one element at a time is
// quadratic, which at large N turns bootstrap into the dominant cost of a
// run.
func (r *Ring) BootstrapAll(eps []simnet.Endpoint) {
	refs := make([]NodeRef, 0, len(eps))
	for _, ep := range eps {
		n := r.nodes[ep]
		if n == nil {
			panic("pastry: BootstrapAll on unknown endpoint")
		}
		n.alive = true
		refs = append(refs, n.Ref())
	}
	r.live = append(r.live, refs...)
	sort.Slice(r.live, func(i, j int) bool { return r.live[i].ID.Less(r.live[j].ID) })
	for _, ep := range eps {
		r.nodes[ep].StartBootstrap()
	}
}

// Start brings the node up through the join protocol: a join request is
// routed to the node's id root through existing nodes, the root returns
// leafset and routing state, and the joiner announces itself to its new
// leafset. If the overlay is empty the node becomes its first member
// immediately. Join requests are retried until a reply arrives — a lost
// join message must not leave the node stranded outside the overlay.
func (n *Node) Start() {
	if n.alive {
		return
	}
	n.alive = true
	n.joining = true
	n.leaf = n.leaf[:0]
	n.setArc()
	n.rows = nil
	if n.ring.NumLive() == 0 {
		n.found()
		return
	}
	n.ring.cJoins.Inc()
	n.sendJoinRequest()
}

// found makes the node the first member of an empty overlay, ready at
// once. What its leafset holds (nothing, or what announces brought while
// it was joining) is what the layers start from, as at bootstrap.
func (n *Node) found() {
	n.joinRetry.Cancel()
	n.ring.noteJoined(n)
	n.joining = false
	n.installLeafset(append(n.ring.cands[:0], n.leaf...), bootstrap)
	if n.OnReady != nil {
		n.OnReady()
	}
}

// sendJoinRequest issues one join attempt and arms the join retry: its
// first timeout, or on a retransmission its next.
func (n *Node) sendJoinRequest() {
	if !n.alive || !n.joining {
		return
	}
	if n.ring.NumLive() == 0 {
		n.found()
		return
	}
	// Prefer a reachable contact: during a network partition a joiner must
	// not burn its whole retry timeout on a contact across the cut. The
	// random draw is made regardless so the rng stream is identical with
	// and without faults.
	contact := n.ring.live[n.ring.rng.Intn(len(n.ring.live))]
	if !n.ring.reachable(n.ep, contact.EP) {
		for _, ref := range n.ring.live {
			if n.ring.reachable(n.ep, ref.EP) {
				contact = ref
				break
			}
		}
	}
	req := &joinRequest{Joiner: n.Ref()}
	n.ring.net.Send(n.ep, contact.EP, refBytes+16, simnet.ClassPastry, req)
	if !n.joinRetry.Again(&joinSchedule, nil) {
		n.joinRetry.Start(n.Sched(), &joinSchedule, func() { n.ring.cJoinRetry.Inc(); n.sendJoinRequest() })
	}
}

// Stop takes the node down silently (a crash or power-off). Failure
// detection at its neighbors is modeled by scheduling notifications one to
// two heartbeat periods later.
func (n *Node) Stop() {
	if !n.alive {
		return
	}
	ref := n.Ref()
	n.alive = false
	n.ring.noteLeft(ref)
	n.joining = false
	n.joinRetry.Cancel()
	// The nodes holding this node in their leafsets — its lh successors
	// and lh predecessors — learn of the death after the detection delay.
	for _, nb := range n.ring.liveLeafNeighbors(n.ring.cands[:0], n.ep, n.id) {
		delay := heartbeatPeriod +
			time.Duration(n.ring.rng.Float64()*float64(heartbeatPeriod))
		n.Sched().After(delay, func() {
			if m := n.ring.nodes[nb.EP]; m != nil && m.alive && m.id == nb.ID {
				m.dropRef(ref)
			}
		})
	}
}

// Route sends an application message toward the root of key, charging the
// given payload wire size plus per-hop envelope overhead under the given
// traffic class. If the local node is the key's root the message is
// delivered locally (after no network hop).
func (n *Node) Route(key ids.ID, payload any, size int, class simnet.Class) {
	if !n.alive {
		return
	}
	n.forward(n.ring.getEnv(key, payload, size, class, n.ep))
}

// forward advances an envelope one hop.
func (n *Node) forward(env *routeEnvelope) {
	if env.Hops >= maxHops {
		// Routing failure; application-level retransmission recovers, but
		// the drop must be visible: a silently vanishing message has
		// repeatedly masked routing-loop bugs.
		n.ring.cHopDrops.Inc()
		n.ring.o.EmitSpan(env.span, obs.Event{Kind: obs.KindRouteDrop,
			Query: traceQuery(env.Payload), EP: int(n.ep), N: int64(env.Hops)})
		n.ring.putEnv(env)
		return
	}
	next, selfIsRoot := n.nextHop(env.Key)
	if selfIsRoot {
		n.ring.hHops.Observe(int64(env.Hops))
		if n.ring.o.Detail() {
			n.ring.o.EmitSpanDetail(env.span, obs.Event{Kind: obs.KindRouteDeliver,
				Query: traceQuery(env.Payload), EP: int(n.ep), N: int64(env.Hops)})
		}
		key, origin, payload := env.Key, env.Origin, env.Payload
		n.ring.putEnv(env)
		n.app.Deliver(key, origin, payload)
		return
	}
	env.Hops++
	size := env.Size + envelopeOverhead
	if !n.ring.isLive(next) {
		n.ring.cStale.Inc()
		if n.ring.o.Detail() {
			env.span = n.ring.o.EmitSpanDetail(env.span, obs.Event{Kind: obs.KindRouteRetry,
				Query: traceQuery(env.Payload), EP: int(n.ep), N: int64(env.Hops)})
		}
		n.reroute(next, env.Class, size, func() { n.forward(env) })
		return
	}
	env.Sender, env.SentAt = n.Ref(), n.Sched().Now()
	n.ring.net.Send(n.ep, next.EP, size, env.Class, env)
}

// reroute handles a hop whose next node is a stale entry: the transmission
// of size bytes is wasted, and after a timeout (MSPastry's per-hop ack
// timeout) the node, if still up, removes the entry and tries again.
func (n *Node) reroute(stale NodeRef, class simnet.Class, size int, again func()) {
	n.ring.net.AccountAggregate(n.ep, class, size, 0)
	n.Sched().After(retryTimeout, func() {
		if n.alive {
			n.dropRef(stale)
			again()
		}
	})
}

// nextHop picks the next hop for key using the classic Pastry rule, whose
// mixed-step ordering is loop-free: (1) if the key falls within the
// leafset's namespace span, the numerically closest of leafset ∪ self is
// the destination; (2) otherwise take the routing-table entry matching the
// key's next digit (common prefix length strictly increases); (3) in the
// rare case that entry is missing, forward to any known node sharing a
// prefix at least as long as ours that is strictly numerically closer
// (prefix length never decreases, distance strictly decreases); (4) with
// no such candidate, deliver to the numerically closest of leafset ∪ self.
// selfIsRoot is true when this node is the destination (next is then this
// node's own reference).
func (n *Node) nextHop(key ids.ID) (next NodeRef, selfIsRoot bool) {
	if root, ok := n.LeafsetRoot(key); ok {
		return root, root.ID == n.id
	}

	plen := ids.CommonPrefixLen(key, n.id, B)
	if plen < len(n.rows) {
		e := n.rows[plen][key.Digit(plen, B)]
		if e.ok {
			return e.NodeRef, false
		}
	}

	// Rare case: any known node with prefix >= plen and strictly smaller
	// numeric distance.
	selfD := n.id.AbsDistance(key)
	best := NodeRef{ID: n.id, EP: n.ep}
	bestD := selfD
	consider := func(ref NodeRef) {
		if ids.CommonPrefixLen(key, ref.ID, B) < plen {
			return
		}
		d := ref.ID.AbsDistance(key)
		if d.Less(bestD) {
			best, bestD = ref, d
		}
	}
	for _, m := range n.leaf {
		consider(m)
	}
	for i := range n.rows {
		for d := 0; d < 16; d++ {
			if n.rows[i][d].ok {
				consider(n.rows[i][d].NodeRef)
			}
		}
	}
	if best.ID != n.id {
		return best, false
	}
	root := n.closestOfLeafset(key)
	return root, root.ID == n.id
}

// closestOfLeafset returns the numerically closest of leafset ∪ self to
// key. Ties go to self, then to the smaller id.
func (n *Node) closestOfLeafset(key ids.ID) NodeRef {
	self := n.Ref()
	if len(n.leaf) == 0 {
		return self
	}
	// The closest member is key's nearest one clockwise or counterclockwise:
	// the first at or above key and the last below it, each wrapping round
	// the ID-sorted leafset.
	i, j := 0, len(n.leaf)
	for i < j {
		h := int(uint(i+j) >> 1)
		if n.leaf[h].ID.Less(key) {
			i = h + 1
		} else {
			j = h
		}
	}
	succ, pred := n.leaf[i%len(n.leaf)], n.leaf[(i+len(n.leaf)-1)%len(n.leaf)]
	best, bestD := succ, succ.ID.AbsDistance(key)
	if d := pred.ID.AbsDistance(key); d.Less(bestD) || d == bestD && pred.ID.Less(succ.ID) {
		best, bestD = pred, d
	}
	if bestD.Less(n.id.AbsDistance(key)) {
		return best
	}
	return self
}

// LeafsetRoot returns the endsystem this node takes for key's root from
// its leafset alone: the numerically closest of leafset ∪ self when key
// lies within the leafset's span (possibly this node itself), and false
// when it does not — there the node knows a next hop, not the root. It
// reads routing state and changes none.
func (n *Node) LeafsetRoot(key ids.ID) (NodeRef, bool) {
	if !n.inLeafsetSpan(key) {
		return NodeRef{}, false
	}
	return n.closestOfLeafset(key), true
}

// inLeafsetSpan reports whether key lies on the namespace arc covered by
// the leafset (from the farthest predecessor, through self, to the
// farthest successor). With a leafset smaller than l (tiny overlays) the
// span is taken to cover the whole ring, because the leafset then contains
// every known node and the closest-member rule is exact.
func (n *Node) inLeafsetSpan(key ids.ID) bool {
	return !n.bounded || n.arcLo.Distance(key).Cmp(n.arcLen) <= 0
}

// setArc caches the leafset's arc for inLeafsetSpan; every change to leaf
// calls it.
func (n *Node) setArc() {
	if n.bounded = len(n.leaf) >= 2*leafsetHalf; !n.bounded {
		return
	}
	// Find the farthest successor (max clockwise distance from self) and
	// farthest predecessor (max counterclockwise distance); the leafset
	// span is the arc from that predecessor through self to that
	// successor. Defaults of self handle a one-sided leafset.
	lo, hi := n.id, n.id
	var dSucc, dPred ids.ID
	for _, m := range n.leaf {
		cw := n.id.Distance(m.ID) // small = successor side
		ccw := m.ID.Distance(n.id)
		if cw.Less(ccw) {
			if dSucc.Less(cw) {
				hi, dSucc = m.ID, cw
			}
		} else if dPred.Less(ccw) {
			lo, dPred = m.ID, ccw
		}
	}
	n.arcLo, n.arcLen = lo, lo.Distance(hi)
}

// IsRootOf reports whether this node believes it is the key's root: no
// node it knows of is numerically closer to the key.
func (n *Node) IsRootOf(key ids.ID) bool {
	_, selfIsRoot := n.nextHop(key)
	return selfIsRoot
}

// HandleMessage implements simnet.Handler.
func (n *Node) HandleMessage(from simnet.Endpoint, payload any) {
	if !n.alive {
		return // powered off: in-flight traffic is lost
	}
	switch m := payload.(type) {
	case *routeEnvelope:
		if d := n.Sched().Now() - m.SentAt; d > 0 {
			// One-way hop delay doubled into an RTT sample. Fault-injected
			// extra delay inflates it, exactly as a real probe would see.
			n.ring.hHopRTT.ObserveDuration(2 * d)
			if n.ring.coords != nil {
				n.ring.coords.Observe(n.ep, m.Sender.EP, 2*d)
			}
		}
		n.learn(m.Sender)
		n.forward(m)
	case *joinRequest:
		n.handleJoinRequest(m)
	case *joinReply:
		n.handleJoinReply(m)
	case *nodeAnnounce:
		n.handleAnnounce(m.Node)
	case *leafsetPull:
		n.handleLeafsetPull(m)
	case *leafsetPush:
		// Repair data arrives; the refill itself was applied from ground
		// truth when the repair started (see removeFromLeafset), so this only
		// accounts the traffic.
	default:
		// Application-level direct (single-hop) message: deliver with the
		// node's own id as the key. Seaweed's metadata replication and
		// aggregation-tree traffic travel this way. Each receipt also
		// feeds the coordinate space: the sample is the topology's
		// deterministic one-way delay doubled — the send/receive delta a
		// piggybacked timestamp would yield on these single-hop messages.
		if n.ring.coords != nil && from != n.ep {
			if d := n.ring.net.Delay(from, n.ep); d > 0 {
				n.ring.coords.Observe(n.ep, from, 2*d)
			}
		}
		if n.app != nil {
			n.app.Deliver(n.id, from, payload)
		}
	}
}

// learn opportunistically caches a node in the routing table.
func (n *Node) learn(ref NodeRef) {
	if ref.ID == n.id {
		return
	}
	plen := ids.CommonPrefixLen(ref.ID, n.id, B)
	if plen >= ids.DigitsPerID(B) {
		return
	}
	for len(n.rows) <= plen {
		if len(n.rows) >= 8 { // deeper rows are covered by the leafset
			return
		}
		n.rows = append(n.rows, n.ring.newRow())
	}
	slot := &n.rows[plen][ref.ID.Digit(plen, B)]
	if !slot.ok {
		*slot = tableEntry{NodeRef: ref, ok: true}
	}
}

// dropRef removes a dead node from the routing table and leafset (with
// leafset repair if needed). It is also the failure-detection upcall: a
// leafset heartbeat has timed out for ref.
func (n *Node) dropRef(ref NodeRef) {
	plen := ids.CommonPrefixLen(ref.ID, n.id, B)
	if plen < len(n.rows) {
		slot := &n.rows[plen][ref.ID.Digit(plen, B)]
		if slot.ok && slot.ID == ref.ID {
			*slot = tableEntry{}
		}
	}
	n.removeFromLeafset(ref)
}

// removeFromLeafset removes ref from the leafset and repairs the leafset
// if it was a member. The refill comes from the ground truth (modeling the
// leafset exchange piggybacked on heartbeats); the pull/push traffic to
// the last two remaining members is simulated for its bandwidth and is
// answered by handleLeafsetPull.
func (n *Node) removeFromLeafset(ref NodeRef) {
	if !hasID(n.leaf, ref.ID) {
		return
	}
	self := n.Ref()
	for i, asked := len(n.leaf)-1, 0; i >= 0 && asked < 2; i-- {
		if target := n.leaf[i]; target.ID != ref.ID {
			asked++
			if n.ring.isLive(target) {
				n.ring.net.Send(n.ep, target.EP, refBytes+8, simnet.ClassPastry,
					&leafsetPull{From: self})
			}
		}
	}
	n.installLeafset(n.ring.liveLeafNeighbors(n.ring.cands[:0], n.ep, n.id), repaired)
}

// reconcileLeafset merges the reachable ground-truth neighbors into the
// leafset, modeling the heartbeat-piggybacked leafset exchange discovering
// nodes that became reachable again after a partition heal. It only adds:
// unreachable members are removed by the failure-detection path
// (dropRef), never silently.
func (n *Node) reconcileLeafset() {
	if !n.alive || n.joining {
		return
	}
	cands := append(n.ring.cands[:0], n.leaf...)
	n.installLeafset(n.ring.liveLeafNeighbors(cands, n.ep, n.id), reconciled)
}

// handleLeafsetPull answers a repair pull, charged as this node's leafset.
func (n *Node) handleLeafsetPull(m *leafsetPull) {
	n.ring.net.Send(n.ep, m.From.EP, 8+len(n.leaf)*refBytes, simnet.ClassPastry, &leafsetPush{})
}

// install says why a leafset is installed, which decides when it reports.
type install uint8

const (
	bootstrap   install = iota // never: the layers start from this leafset (also a founder's)
	joined                     // always, after announcing the node to its live members
	announced                  // when the membership moved
	reannounced                // always: the announcer was a member already
	repaired                   // always, counted as a repair: a member was noted dead
	reconciled                 // when the membership moved, counted as a reconcile
)

// installLeafset is the one path that changes the leafset and raises
// LeafsetChanged (DESIGN.md, "Leafset changes"): the l/2 candidates
// nearest the node on each side become its leafset (cands is the ring's
// scratch), reported as why asks. After the upcall, during which
// LeafsetDelta compares the two, the new leafset is the reported one; a
// bootstrap install only makes it so.
func (n *Node) installLeafset(cands []NodeRef, why install) {
	// Sort by clockwise distance from self: successors first, predecessors
	// (large clockwise distance) last. Dedup rides on the sort: equal
	// clockwise distance from one origin means equal ID.
	all := slices.DeleteFunc(cands, func(c NodeRef) bool { return c.ID == n.id })
	slices.SortFunc(all, func(a, b NodeRef) int {
		return n.id.Distance(a.ID).Cmp(n.id.Distance(b.ID))
	})
	all = slices.CompactFunc(all, func(a, b NodeRef) bool { return a.ID == b.ID })
	if len(all) > 2*leafsetHalf {
		all = append(all[:leafsetHalf], all[len(all)-leafsetHalf:]...) // l/2 successors, l/2 predecessors
	}
	slices.SortFunc(all, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	n.ring.cands = cands[:0]
	changed := !slices.Equal(all, n.leaf)
	n.leaf = append(n.leaf[:0], all...)
	n.setArc()
	switch {
	case why == bootstrap:
		n.reported = append(n.reported[:0], n.leaf...)
		return
	case !changed && (why == announced || why == reconciled):
		return
	case why == joined:
		ann := &nodeAnnounce{Node: n.Ref()}
		for _, m := range n.leaf {
			if n.ring.isLive(m) {
				n.ring.net.Send(n.ep, m.EP, refBytes+8, simnet.ClassPastry, ann)
			}
		}
	case why == repaired:
		n.ring.cRepairs.Inc()
		n.ring.o.Emit(obs.Event{Kind: obs.KindLeafsetRepair, EP: int(n.ep)})
	case why == reconciled:
		n.ring.cReconciles.Inc()
		n.ring.o.Emit(obs.Event{Kind: obs.KindLeafsetRepair, EP: int(n.ep)})
	}
	if n.app != nil {
		n.app.LeafsetChanged()
	}
	n.reported = append(n.reported[:0], n.leaf...)
}

// handleJoinRequest routes a join toward the joiner's id; at the root it
// answers with leafset and routing state.
func (n *Node) handleJoinRequest(req *joinRequest) {
	req.Hops++
	if req.Hops >= maxHops {
		// Dropped join: the joiner's retry timer re-issues the request, but
		// record the failure rather than losing it silently.
		n.ring.cJoinDrops.Inc()
		n.ring.o.Emit(obs.Event{Kind: obs.KindRouteDrop, EP: int(n.ep),
			N: int64(req.Hops)})
		return
	}
	next, selfIsRoot := n.nextHop(req.Joiner.ID)
	if !selfIsRoot {
		if !n.ring.isLive(next) {
			n.reroute(next, simnet.ClassPastry, refBytes+16, func() { n.handleJoinRequest(req) })
			return
		}
		n.ring.net.Send(n.ep, next.EP, refBytes+16, simnet.ClassPastry, req)
		return
	}
	// Root: assemble the joiner's state. The rows come from the ground
	// truth, modeling the state gathered along the join path; they are
	// flattened into the reply and discarded, so they come from the plain
	// heap rather than the table arena.
	joiner := req.Joiner
	rows, entries := n.ring.buildRoutingTable(joiner.ID, func() *tableRow { return new(tableRow) })
	leafset := n.ring.liveLeafNeighbors(make([]NodeRef, 0, 2*leafsetHalf), joiner.EP, joiner.ID)
	reply := &joinReply{Leafset: leafset, Rows: flattenRows(rows)}
	size := 16 + (len(leafset)+entries)*refBytes
	n.ring.net.Send(n.ep, joiner.EP, size, simnet.ClassPastry, reply)
}

func flattenRows(rows []*tableRow) []NodeRef {
	var out []NodeRef
	for i := range rows {
		for d := 0; d < 16; d++ {
			if rows[i][d].ok {
				out = append(out, rows[i][d].NodeRef)
			}
		}
	}
	return out
}

// handleJoinReply installs the joiner's overlay state and announces the
// new node to its leafset.
func (n *Node) handleJoinReply(reply *joinReply) {
	if !n.joining {
		return // duplicate or stale reply
	}
	n.joining = false
	n.joinRetry.Cancel()
	n.rows = nil
	for _, ref := range reply.Rows {
		n.learn(ref)
	}
	n.ring.noteJoined(n)
	n.ring.o.Emit(obs.Event{Kind: obs.KindJoin, EP: int(n.ep)})
	n.installLeafset(append(n.ring.cands[:0], reply.Leafset...), joined)
	if n.OnReady != nil {
		n.OnReady()
	}
}

// handleAnnounce folds a newly joined node into local state: the newcomer
// is a leafset candidate.
func (n *Node) handleAnnounce(ref NodeRef) {
	n.learn(ref)
	why := announced
	if hasID(n.leaf, ref.ID) {
		why = reannounced
	}
	n.installLeafset(append(append(n.ring.cands[:0], n.leaf...), ref), why)
}
