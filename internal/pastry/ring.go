package pastry

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Ring coordinates the overlay nodes of one simulation. It owns the
// ground-truth live-membership index used for three things the simulator
// abstracts: scheduling failure-detection notifications when a node dies
// (modeling heartbeat loss), refilling leafsets during repair (modeling
// the leafset exchange piggybacked on heartbeats), and seeding routing
// tables (modeling the join-time state transfer). Every abstraction
// charges its bandwidth to the statistics; see the package comment.
type Ring struct {
	net   *simnet.Network
	sched *simnet.Wheel
	rng   *rand.Rand // protocol randomness, seeded with Config.Seed

	nodes []*Node   // by endpoint; nil until AddNode
	live  []NodeRef // ground truth, sorted by ID

	// envFree is an intrusive free list of route envelopes: one is taken
	// per Route on the hottest message path, and the simulation is
	// single-threaded, so a plain list (no sync.Pool) recycles them.
	// Envelopes lost in flight (message loss, dead receiver) simply fall
	// to the garbage collector — the list is a recycling cache, not an
	// owner.
	envFree *routeEnvelope
	arena   []tableRow // slab tail for newRow; grown in chunks
	// cands and delta are scratch for an install's leafset candidates
	// and LeafsetDelta's answer, used by one node at a time.
	cands, delta []NodeRef

	// reach, when non-nil, reports whether two endpoints can currently
	// exchange messages (false across an active network partition). The
	// ground-truth oracles — leafset refill, join contacts — are filtered
	// through it so that simulated repair never "cheats" across a cut the
	// real protocol could not see through.
	reach func(a, b simnet.Endpoint) bool

	// coords, when non-nil, receives an RTT sample for every message
	// receipt (route envelopes carry their virtual send time; direct sends
	// use the deterministic topology delay the receiver would compute
	// from a piggybacked timestamp). Set once before the simulation
	// starts via SetCoords.
	coords *coords.Space

	// Observability handles, cached once at construction (nil-safe no-ops
	// when the network has no obs layer attached).
	o           *obs.Obs
	hHops       *obs.Histogram // pastry_hops: hops per delivered route
	hHopRTT     *obs.Histogram // pastry_hop_rtt_ns: per-hop RTT samples
	cStale      *obs.Counter   // pastry_stale_retries
	cRepairs    *obs.Counter   // pastry_leafset_repairs
	cJoins      *obs.Counter   // pastry_joins
	cJoinRetry  *obs.Counter   // pastry_join_retries
	cHopDrops   *obs.Counter   // pastry_maxhops_drops
	cJoinDrops  *obs.Counter   // pastry_join_maxhops_drops
	cReconciles *obs.Counter   // pastry_leafset_reconciles (partition heal)
}

// tableRow is one routing table row: one entry per digit value.
type tableRow = [1 << B]tableEntry

// arenaChunk is the slab size of the routing-row arena, in rows.
const arenaChunk = 256

// newRow allocates a zeroed routing-table row from the arena. Slab
// allocation keeps a large bootstrap from creating millions of
// individually tracked heap objects; rows are never explicitly freed
// (a restarted node's old rows die with their slab).
func (r *Ring) newRow() *tableRow {
	if len(r.arena) == 0 {
		r.arena = make([]tableRow, arenaChunk)
	}
	row := &r.arena[0]
	r.arena = r.arena[1:]
	return row
}

// getEnv takes a routeEnvelope from the free list (or allocates one) and
// fills it for a fresh route from origin.
func (r *Ring) getEnv(key ids.ID, payload any, size int, class simnet.Class, origin simnet.Endpoint) *routeEnvelope {
	e := r.envFree
	if e == nil {
		e = &routeEnvelope{}
	} else {
		r.envFree = e.next
	}
	*e = routeEnvelope{Key: key, Payload: payload, Size: size, Class: class,
		Origin: origin, span: traceSpan(payload)}
	return e
}

// putEnv returns an envelope to the free list once its route has ended
// (delivered or dropped).
func (r *Ring) putEnv(e *routeEnvelope) {
	e.Payload = nil
	e.next = r.envFree
	r.envFree = e
}

// SetCoords attaches a network-coordinate space: every subsequent hop
// and direct-message receipt feeds it an RTT sample. Call once, before
// the simulation runs.
func (r *Ring) SetCoords(s *coords.Space) { r.coords = s }

// Coords returns the attached coordinate space (nil when the subsystem
// is disabled).
func (r *Ring) Coords() *coords.Space { return r.coords }

// NewRing creates an empty ring over the network.
func NewRing(net *simnet.Network, cfg Config) *Ring {
	o := net.Obs()
	r := &Ring{
		net:   net,
		sched: net.Scheduler(),
		rng:   rand.New(ids.NewSource(cfg.Seed)),
		nodes: make([]*Node, net.NumEndpoints()),

		o:           o,
		hHops:       o.Histogram("pastry_hops"),
		hHopRTT:     o.DurationHistogram("pastry_hop_rtt_ns"),
		cStale:      o.Counter("pastry_stale_retries"),
		cRepairs:    o.Counter("pastry_leafset_repairs"),
		cJoins:      o.Counter("pastry_joins"),
		cJoinRetry:  o.Counter("pastry_join_retries"),
		cHopDrops:   o.Counter("pastry_maxhops_drops"),
		cJoinDrops:  o.Counter("pastry_join_maxhops_drops"),
		cReconciles: o.Counter("pastry_leafset_reconciles"),
	}
	r.startAccounting()
	return r
}

// Obs returns the observability layer attached to the underlying network
// (nil when disabled).
func (r *Ring) Obs() *obs.Obs { return r.o }

// Scheduler returns the wheel driving the ring.
func (r *Ring) Scheduler() *simnet.Wheel { return r.sched }

// Network returns the underlying simulated network.
func (r *Ring) Network() *simnet.Network { return r.net }

// AddNode registers a (initially offline) node with the given endsystemId
// at the given endpoint. The application receives upcalls once the node
// starts.
func (r *Ring) AddNode(ep simnet.Endpoint, id ids.ID, app Application) *Node {
	if r.nodes[ep] != nil {
		panic(fmt.Sprintf("pastry: endpoint %d already has a node", ep))
	}
	n := &Node{ring: r, ep: ep, id: id, app: app}
	r.nodes[ep] = n
	r.net.Bind(ep, n)
	return n
}

// Node returns the node at an endpoint, or nil.
func (r *Ring) Node(ep simnet.Endpoint) *Node { return r.nodes[ep] }

// NumLive returns the current number of live nodes.
func (r *Ring) NumLive() int { return len(r.live) }

// liveIndex returns the insertion position of id in the live index.
func (r *Ring) liveIndex(id ids.ID) int {
	return sort.Search(len(r.live), func(i int) bool { return !r.live[i].ID.Less(id) })
}

// noteJoined adds a node to the ground-truth live index.
func (r *Ring) noteJoined(n *Node) {
	ref := n.Ref()
	i := r.liveIndex(ref.ID)
	r.live = append(r.live, NodeRef{})
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = ref
}

// noteLeft removes a node from the ground-truth live index.
func (r *Ring) noteLeft(ref NodeRef) {
	i := r.liveIndex(ref.ID)
	if i < len(r.live) && r.live[i].ID == ref.ID {
		r.live = append(r.live[:i], r.live[i+1:]...)
	}
}

// isLive reports whether the node with this exact ref is currently up.
func (r *Ring) isLive(ref NodeRef) bool {
	m := r.nodes[ref.EP]
	return m != nil && m.id == ref.ID && m.alive
}

// LiveClosest returns the k live nodes numerically closest to key
// (excluding, if skip is non-nil, the node *skip). This is the ground
// truth replica-set / leafset oracle.
func (r *Ring) LiveClosest(key ids.ID, k int, skip *NodeRef) []NodeRef {
	if len(r.live) == 0 || k <= 0 {
		return nil
	}
	// Walk outward from the insertion point with two cursors, picking the
	// numerically closer side each step.
	n := len(r.live)
	hi := r.liveIndex(key) % n
	lo := (hi - 1 + n) % n
	out := make([]NodeRef, 0, k)
	taken := 0
	for taken < n && len(out) < k {
		dLo := key.AbsDistance(r.live[lo].ID)
		dHi := key.AbsDistance(r.live[hi].ID)
		var pick NodeRef
		if lo == hi {
			pick = r.live[lo]
			lo = (lo - 1 + n) % n
			hi = (hi + 1) % n
		} else if dLo.Less(dHi) || (dLo == dHi && r.live[lo].ID.Less(r.live[hi].ID)) {
			pick = r.live[lo]
			lo = (lo - 1 + n) % n
		} else {
			pick = r.live[hi]
			hi = (hi + 1) % n
		}
		taken++
		if skip != nil && pick.ID == skip.ID {
			continue
		}
		out = append(out, pick)
	}
	return out
}

// SetReachability installs (or, with nil, removes) the pairwise
// reachability oracle consulted by the ground-truth repair paths. The
// fault-injection layer wires its partition state in here; call
// ReachabilityChanged after the reachable set changes.
func (r *Ring) SetReachability(f func(a, b simnet.Endpoint) bool) { r.reach = f }

// reachable reports whether two endpoints can currently exchange messages.
func (r *Ring) reachable(a, b simnet.Endpoint) bool {
	return r.reach == nil || r.reach(a, b)
}

// liveLeafNeighbors appends the proper leafset membership around id, as
// visible from the endpoint from, to dst and returns the extended slice:
// its l/2 nearest live *reachable* successors and l/2 nearest such
// predecessors in ring order, excluding id itself. Absent partitions this
// set is both what a node's own leafset should contain and — by the
// symmetry of successor/predecessor rank — exactly the nodes whose
// leafsets contain id; during a partition each side sees only its own
// fragment of the ring. On a small ring the two walks meet: a predecessor
// already taken as a successor is skipped.
func (r *Ring) liveLeafNeighbors(dst []NodeRef, from simnet.Endpoint, id ids.ID) []NodeRef {
	n := len(r.live)
	if n == 0 {
		return dst
	}
	at := r.liveIndex(id) % n
	start := len(dst)
	for s, i := 0, at; s < leafsetHalf && i < at+n; i++ { // successors
		ref := r.live[i%n]
		if ref.ID != id && r.reachable(from, ref.EP) {
			dst = append(dst, ref)
			s++
		}
	}
	succ := dst[start:]
	for s, i := 0, at-1; s < leafsetHalf && i > at-1-n; i-- { // predecessors
		ref := r.live[((i%n)+n)%n]
		if ref.ID != id && !slices.ContainsFunc(succ, func(m NodeRef) bool { return m.ID == ref.ID }) &&
			r.reachable(from, ref.EP) {
			dst = append(dst, ref)
			s++
		}
	}
	return dst
}

// ReachabilityChanged reacts to a change in the reachability oracle (a
// partition forming or healing). For every live node: leafset members that
// are no longer reachable stop answering heartbeats, so their death is
// noted after the usual detection delay of one to two heartbeat periods
// (unless the cut heals first); and within one heartbeat period the node
// reconciles its leafset against the reachable ground truth, modeling the
// leafset exchange piggybacked on heartbeats discovering newly reachable
// neighbors after a heal. Iteration over the ID-sorted live index keeps
// the rng draw order deterministic.
func (r *Ring) ReachabilityChanged() {
	rng := r.rng
	for _, ref := range r.live {
		n := r.nodes[ref.EP]
		if n == nil || !n.alive || n.joining {
			continue
		}
		for _, m := range n.leaf {
			if r.reachable(n.ep, m.EP) {
				continue
			}
			delay := heartbeatPeriod +
				time.Duration(rng.Float64()*float64(heartbeatPeriod))
			r.sched.After(delay, func() {
				if n.alive && !n.joining && !r.reachable(n.ep, m.EP) {
					n.dropRef(m)
				}
			})
		}
		delay := time.Duration(rng.Float64() * float64(heartbeatPeriod))
		r.sched.After(delay, func() { n.reconcileLeafset() })
	}
}

// Root returns the live node numerically closest to key, the ground-truth
// root of the key. ok is false when no node is live.
func (r *Ring) Root(key ids.ID) (NodeRef, bool) {
	c := r.LiveClosest(key, 1, nil)
	if len(c) == 0 {
		return NodeRef{}, false
	}
	return c[0], true
}

// prefixRange returns the half-open [lo, hi) index range of live nodes
// whose IDs share the first plen digits of id.
func (r *Ring) prefixRange(id ids.ID, plen int) (int, int) {
	loKey := id.PrefixMask(plen, B)
	// hiKey is the first ID past the prefix block.
	span := ids.MaxID.Rsh(uint(plen * B))
	hiKey := loKey.Add(span).AddUint64(1)
	lo := r.liveIndex(loKey)
	var hi int
	if hiKey.IsZero() { // wrapped: block extends to the top of the namespace
		hi = len(r.live)
	} else {
		hi = r.liveIndex(hiKey)
	}
	return lo, hi
}

// buildRoutingTable constructs a routing table for id from the ground
// truth, as the join-time state transfer would. Entry picks draw from the
// ring's rng; rows come from alloc, letting nodes building their own
// tables use the arena while join replies — whose rows are flattened and
// discarded — use plain heap rows. It returns the table rows and the
// number of entries (for bandwidth charging).
func (r *Ring) buildRoutingTable(id ids.ID, alloc func() *tableRow) (rows []*tableRow, entries int) {
	const width = 1 << B
	maxRows := ids.DigitsPerID(B)
	for plen := 0; plen < maxRows; plen++ {
		lo, hi := r.prefixRange(id, plen)
		if hi-lo <= 2*leafsetHalf {
			break // the leafset covers the rest
		}
		row := alloc()
		filled := false
		for d := 0; d < width; d++ {
			if d == id.Digit(plen, B) {
				continue // own digit: next row handles it
			}
			key := id.PrefixMask(plen, B).WithDigit(plen, B, d)
			dlo, dhi := r.prefixRange(key, plen+1)
			if dhi <= dlo {
				continue
			}
			pick := r.live[dlo+r.rng.Intn(dhi-dlo)]
			row[d] = tableEntry{NodeRef: pick, ok: true}
			entries++
			filled = true
		}
		rows = append(rows, row)
		if !filled {
			break
		}
	}
	return rows, entries
}

// expectedProbeRate returns the steady-state routing-table maintenance
// traffic in bytes/second for the current network size: one probe per
// populated table row per probe period, as MSPastry's self-tuning
// maintenance does.
func (r *Ring) expectedProbeRate() float64 {
	n := len(r.live)
	if n < 2 {
		return 0
	}
	rowsInUse := math.Log(float64(n))/math.Log(16) + 1
	const probePeriod = 60.0 // seconds
	const probeBytes = 48.0
	return rowsInUse * 16 * probeBytes / probePeriod / 4 // quarter of entries probed per period
}

// startAccounting schedules the aggregate charging of heartbeat and probe
// traffic described in the package comment.
func (r *Ring) startAccounting() {
	r.sched.Every(accountingPeriod, func() {
		secs := accountingPeriod.Seconds()
		hbPerSec := float64(2*leafsetHalf) * float64(heartbeatBytes) /
			heartbeatPeriod.Seconds()
		probe := r.expectedProbeRate()
		perNode := int((hbPerSec + probe) * secs)
		for _, ref := range r.live {
			r.net.AccountAggregate(ref.EP, simnet.ClassPastry, perNode, perNode)
		}
	})
}
