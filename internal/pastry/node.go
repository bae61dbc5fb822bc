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

	leaf []NodeRef   // leafset: l/2 nearest per side, sorted by ID
	rows []*tableRow // routing table rows, arena-allocated as needed

	// OnReady, if set, is called once the node has joined the overlay and
	// is routable (immediately for bootstrap starts, after the join
	// protocol completes otherwise).
	OnReady func()

	joining   bool
	joinRetry simnet.Timer
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

// Leafset returns a copy of the node's current leafset members, for
// callers that sort, extend, keep or ship the slice.
func (n *Node) Leafset() []NodeRef {
	out := make([]NodeRef, len(n.leaf))
	copy(out, n.leaf)
	return out
}

// LeafsetView returns the node's current leafset members without copying.
// The slice is the node's own: read-only, and good only until the node
// next handles an event. It is for per-message paths that just iterate.
func (n *Node) LeafsetView() []NodeRef { return n.leaf }

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
	dst = dst[:start+dedupRefs(out)]
	return dst
}

// dedupRefs compacts a sorted NodeRef slice in place, returning the new
// length.
func dedupRefs(refs []NodeRef) int {
	w := 0
	for i := range refs {
		if i == 0 || refs[i].ID != refs[i-1].ID {
			refs[w] = refs[i]
			w++
		}
	}
	return w
}

// ReplicaSet returns the k leafset members numerically closest to the
// node's own id — the metadata replica set of Seaweed §3.2.
func (n *Node) ReplicaSet(k int) []NodeRef {
	return n.AppendReplicaSet(nil, k)
}

// AppendReplicaSet appends the replica set to dst and returns the
// extended slice; callers on hot paths reuse dst across calls to avoid
// the per-call allocation of ReplicaSet.
func (n *Node) AppendReplicaSet(dst []NodeRef, k int) []NodeRef {
	start := len(dst)
	dst = append(dst, n.leaf...)
	out := dst[start:]
	slices.SortFunc(out, func(a, b NodeRef) int {
		return n.id.AbsDistance(a.ID).Cmp(n.id.AbsDistance(b.ID))
	})
	if len(out) > k {
		dst = dst[:start+k]
	}
	return dst
}

// StartBootstrap brings the node up as part of the initial population,
// installing overlay state directly with no protocol traffic: this is the
// simulation's initial condition, not an event within it. The ring's
// ground-truth index must already contain the full initial population
// (see Ring.BootstrapAll).
func (n *Node) StartBootstrap() {
	n.alive = true
	n.joining = false
	n.installState()
	if n.OnReady != nil {
		n.OnReady()
	}
}

// installState fills the leafset and routing table from the ground truth.
func (n *Node) installState() {
	n.setLeafset(n.ring.liveLeafNeighbors(n.ep, n.id, leafsetHalf))
	n.rows, _ = n.ring.buildRoutingTable(n.id, n.ring.newRow)
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
	n.leaf = nil
	n.rows = nil
	if n.ring.NumLive() == 0 {
		n.ring.noteJoined(n)
		n.joining = false
		if n.OnReady != nil {
			n.OnReady()
		}
		return
	}
	n.ring.cJoins.Inc()
	n.sendJoinRequest()
}

// sendJoinRequest issues one join attempt and arms the retry timer.
func (n *Node) sendJoinRequest() {
	if !n.alive || !n.joining {
		return
	}
	if n.ring.NumLive() == 0 {
		n.ring.noteJoined(n)
		n.joining = false
		if n.OnReady != nil {
			n.OnReady()
		}
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
	n.joinRetry = n.Sched().After(joinRetryTimeout, func() {
		n.ring.cJoinRetry.Inc()
		n.sendJoinRequest()
	})
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
	n.joinRetry = simnet.Timer{}
	// The nodes holding this node in their leafsets — its lh successors
	// and lh predecessors — learn of the death after the detection delay.
	neighbors := n.ring.liveLeafNeighbors(n.ep, n.id, leafsetHalf)
	for _, nb := range neighbors {
		nb := nb
		delay := heartbeatPeriod +
			time.Duration(n.ring.rng.Float64()*float64(heartbeatPeriod))
		n.Sched().After(delay, func() {
			if m := n.ring.nodes[nb.EP]; m != nil && m.alive && m.id == nb.ID {
				m.noteDead(ref)
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
	n.forward(n.ring.getEnv(key, payload, size, class), n.ep)
}

// forward advances an envelope one hop. origin is the endpoint of the
// message's original sender, passed through to Deliver.
func (n *Node) forward(env *routeEnvelope, origin simnet.Endpoint) {
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
		key, payload := env.Key, env.Payload
		n.ring.putEnv(env)
		n.app.Deliver(key, origin, payload)
		return
	}
	env.Hops++
	size := env.Size + envelopeOverhead
	if !n.ring.isLive(next) {
		// Stale entry: the transmission is wasted, and after a timeout the
		// node removes the entry and reroutes — modeling MSPastry's
		// per-hop ack timeout.
		n.ring.cStale.Inc()
		if n.ring.o.Detail() {
			env.span = n.ring.o.EmitSpanDetail(env.span, obs.Event{Kind: obs.KindRouteRetry,
				Query: traceQuery(env.Payload), EP: int(n.ep), N: int64(env.Hops)})
		}
		n.ring.net.AccountAggregate(n.ep, env.Class, size, 0)
		n.Sched().After(retryTimeout, func() {
			if !n.alive {
				return
			}
			n.dropRef(next)
			n.forward(env, origin)
		})
		return
	}
	n.ring.net.Send(n.ep, next.EP, size, env.Class, n.ring.getHop(env, origin, n.Ref(), n.Sched().Now()))
}

// hopMsg is the per-hop wrapper carrying an envelope between nodes. The
// wrappers are pooled (see Ring.getHop/putHop); the receiving node
// recycles one as soon as it has copied the fields out.
type hopMsg struct {
	Env    *routeEnvelope
	Origin simnet.Endpoint
	Sender NodeRef
	// SentAt is the hop's virtual send time. Like a trace Cause it is
	// in-struct metadata excluded from wire sizes: a real implementation
	// piggybacks the few timestamp/coordinate bytes into headers it
	// already pays for. The receiver turns now−SentAt into the RTT sample
	// feeding the pastry_hop_rtt histogram and the coordinate space.
	SentAt time.Duration
	next   *hopMsg // Ring free list
}

// SingleDelivery opts hop wrappers out of the duplication fault: the
// receiver recycles them at delivery, so a second delivery would read
// freed state.
func (*hopMsg) SingleDelivery() {}

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
// key.
func (n *Node) closestOfLeafset(key ids.ID) NodeRef {
	best := n.Ref()
	bestD := n.id.AbsDistance(key)
	for _, m := range n.leaf {
		d := m.ID.AbsDistance(key)
		if d.Less(bestD) {
			best, bestD = m, d
		}
	}
	return best
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
	if len(n.leaf) < 2*leafsetHalf {
		return true
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
	return lo.Distance(key).Cmp(lo.Distance(hi)) <= 0
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
	case *hopMsg:
		env, origin, sender, sentAt := m.Env, m.Origin, m.Sender, m.SentAt
		n.ring.putHop(m)
		if d := n.Sched().Now() - sentAt; d > 0 {
			// One-way hop delay doubled into an RTT sample. Fault-injected
			// extra delay inflates it, exactly as a real probe would see.
			n.ring.hHopRTT.ObserveDuration(2 * d)
			if n.ring.coords != nil {
				n.ring.coords.Observe(n.ep, sender.EP, 2*d)
			}
		}
		n.learn(sender)
		n.forward(env, origin)
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
		// truth when the repair started (see noteDead), so this only
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
// leafset repair if needed).
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

// noteDead is the failure-detection upcall: a leafset heartbeat has timed
// out for ref.
func (n *Node) noteDead(ref NodeRef) {
	n.dropRef(ref)
}

// removeFromLeafset removes ref from the leafset and repairs the leafset
// if it was a member.
func (n *Node) removeFromLeafset(ref NodeRef) {
	idx := -1
	for i, m := range n.leaf {
		if m.ID == ref.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	n.leaf = append(n.leaf[:idx], n.leaf[idx+1:]...)
	n.ring.cRepairs.Inc()
	n.ring.o.Emit(obs.Event{Kind: obs.KindLeafsetRepair, EP: int(n.ep)})
	n.repairLeafset()
	if n.app != nil {
		n.app.LeafsetChanged()
	}
}

// repairLeafset refills the leafset after a member loss. The refill
// content comes from the ground truth (modeling the leafset exchange
// piggybacked on heartbeats); the pull/push traffic to the two extreme
// remaining members is simulated for its bandwidth and is answered by
// handleLeafsetPull.
func (n *Node) repairLeafset() {
	self := n.Ref()
	for i := 0; i < 2 && i < len(n.leaf); i++ {
		target := n.leaf[len(n.leaf)-1-i]
		if n.ring.isLive(target) {
			n.ring.net.Send(n.ep, target.EP, refBytes+8, simnet.ClassPastry,
				&leafsetPull{From: self})
		}
	}
	n.setLeafset(n.ring.liveLeafNeighbors(n.ep, n.id, leafsetHalf))
}

// reconcileLeafset merges the reachable ground-truth neighbors into the
// leafset, modeling the heartbeat-piggybacked leafset exchange discovering
// nodes that became reachable again after a partition heal. It only adds:
// unreachable members are removed by the failure-detection path
// (noteDead), never silently. Fires LeafsetChanged when membership moved
// so the layers above re-replicate metadata and repair aggregation trees.
func (n *Node) reconcileLeafset() {
	if !n.alive || n.joining {
		return
	}
	want := n.ring.liveLeafNeighbors(n.ep, n.id, leafsetHalf)
	cands := make([]NodeRef, 0, len(n.leaf)+len(want))
	cands = append(cands, n.leaf...)
	cands = append(cands, want...)
	before := append([]NodeRef(nil), n.leaf...)
	n.setLeafset(cands)
	if slices.Equal(before, n.leaf) {
		return
	}
	n.ring.cReconciles.Inc()
	n.ring.o.Emit(obs.Event{Kind: obs.KindLeafsetRepair, EP: int(n.ep)})
	if n.app != nil {
		n.app.LeafsetChanged()
	}
}

// handleLeafsetPull answers a repair pull with this node's leafset.
func (n *Node) handleLeafsetPull(m *leafsetPull) {
	size := 8 + len(n.leaf)*refBytes
	n.ring.net.Send(n.ep, m.From.EP, size, simnet.ClassPastry,
		&leafsetPush{Leafset: n.Leafset()})
}

// setLeafset installs the l/2 nearest candidates on each side of the node.
// Dedup rides on the distance sort (equal clockwise distance from one
// origin means equal ID), avoiding a map allocation on this
// churn-frequency path.
func (n *Node) setLeafset(cands []NodeRef) {
	all := make([]NodeRef, 0, len(cands))
	for _, c := range cands {
		if c.ID != n.id {
			all = append(all, c)
		}
	}
	// Sort by clockwise distance from self: successors first,
	// predecessors (large clockwise distance) last.
	slices.SortFunc(all, func(a, b NodeRef) int {
		return n.id.Distance(a.ID).Cmp(n.id.Distance(b.ID))
	})
	all = slices.CompactFunc(all, func(a, b NodeRef) bool { return a.ID == b.ID })
	var leaf []NodeRef
	if len(all) <= 2*leafsetHalf {
		leaf = all
	} else {
		leaf = append(leaf, all[:leafsetHalf]...)          // l/2 successors
		leaf = append(leaf, all[len(all)-leafsetHalf:]...) // l/2 predecessors
	}
	slices.SortFunc(leaf, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	n.leaf = leaf
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
			size := refBytes + 16
			n.ring.net.AccountAggregate(n.ep, simnet.ClassPastry, size, 0)
			n.Sched().After(retryTimeout, func() {
				if n.alive {
					n.dropRef(next)
					n.handleJoinRequest(req)
				}
			})
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
	leafset := n.ring.liveLeafNeighbors(joiner.EP, joiner.ID, leafsetHalf)
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
	n.joinRetry = simnet.Timer{}
	n.setLeafset(reply.Leafset)
	n.rows = nil
	for _, ref := range reply.Rows {
		n.learn(ref)
	}
	n.ring.noteJoined(n)
	n.ring.o.Emit(obs.Event{Kind: obs.KindJoin, EP: int(n.ep)})
	ann := &nodeAnnounce{Node: n.Ref()}
	for _, m := range n.leaf {
		if n.ring.isLive(m) {
			n.ring.net.Send(n.ep, m.EP, refBytes+8, simnet.ClassPastry, ann)
		}
	}
	if n.app != nil {
		n.app.LeafsetChanged()
	}
	if n.OnReady != nil {
		n.OnReady()
	}
}

// handleAnnounce folds a newly joined node into local state.
func (n *Node) handleAnnounce(ref NodeRef) {
	n.learn(ref)
	// Leafset candidate: recompute with the newcomer included.
	cands := append(n.Leafset(), ref)
	before := len(n.leaf)
	n.setLeafset(cands)
	changed := len(n.leaf) != before
	if !changed {
		for _, m := range n.leaf {
			if m.ID == ref.ID {
				changed = true
				break
			}
		}
	}
	if changed && n.app != nil {
		n.app.LeafsetChanged()
	}
}
