package pastry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// Ring coordinates the overlay nodes of one simulation. It owns the
// ground-truth live-membership index used for three things the simulator
// abstracts: scheduling failure-detection notifications when a node dies
// (modeling heartbeat loss), refilling leafsets during repair (modeling
// the leafset exchange piggybacked on heartbeats), and seeding routing
// tables (modeling the join-time state transfer). Every abstraction
// charges its bandwidth to the statistics; see the package comment.
//
// # Sharded execution
//
// Under the sharded engine (simnet.Sharded) node events on different
// shards execute concurrently within a lookahead window. The ring keeps
// that safe and deterministic with two rules:
//
//   - Mutable per-node state is touched only by events on the node's own
//     shard. Cross-shard reactions (death notifications) travel through
//     Network.CallAfter, which routes them to the target's shard via the
//     deterministic barrier merge.
//   - The shared ground truth — the live index and the committed alive
//     bits — is mutated only between windows. Membership changes made by
//     events (join, stop) are recorded in per-shard op logs and applied
//     at the next window barrier in canonical (time, shard, seq) order,
//     so every shard reads an identical snapshot during a window and the
//     result is independent of the worker count. Remote shards therefore
//     observe a membership change up to one lookahead window (a few
//     milliseconds of virtual time) late; failure detection operates on
//     heartbeat timescales, so the lag is far below the model's own
//     resolution.
//
// Free lists and protocol rngs are per shard: allocation draws come from
// the shard executing the event, which is deterministic for a fixed
// topology regardless of workers. With one shard the single rng stream is
// byte-identical to the historical serial implementation.
type Ring struct {
	cfg   Config
	net   *simnet.Network
	sched simnet.Scheduler

	nodes []*Node   // by endpoint; nil until AddNode
	live  []NodeRef // ground truth, sorted by ID

	// sh holds the per-shard mutable state: protocol rng, message free
	// lists, the routing-row arena, and the deferred membership op log.
	// Entry i is touched only by shard i's events (and by the barrier
	// committer, which runs single-threaded between windows).
	sh []ringShard

	// deferOps is true under a multi-shard engine: membership ops commit
	// at window barriers instead of immediately.
	deferOps bool

	// aliveBits is the committed alive-by-endpoint view used for
	// cross-shard liveness checks (multi-shard engines only; nil
	// otherwise). A node's own shard reads the node's exact alive field;
	// remote shards read this snapshot, which lags by at most one window.
	aliveBits []bool

	// reach, when non-nil, reports whether two endpoints can currently
	// exchange messages (false across an active network partition). The
	// ground-truth oracles — leafset refill, join contacts — are filtered
	// through it so that simulated repair never "cheats" across a cut the
	// real protocol could not see through.
	reach func(a, b simnet.Endpoint) bool

	// coords, when non-nil, receives an RTT sample for every message
	// receipt (hop wrappers carry their virtual send time; direct sends
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

// ringShard is the state owned by one shard's events. hopFree/envFree are
// intrusive free lists of the per-hop message wrappers: one hopMsg is
// allocated per routing hop on the hottest message path, and each shard
// is single-threaded under its wheel, so a plain list (no sync.Pool)
// recycles them. Wrappers lost in flight (message loss, dead receiver)
// simply fall to the garbage collector, as do wrappers freed on a shard
// other than the one that allocated them — the lists are recycling
// caches, not owners.
type ringShard struct {
	rng     *rand.Rand
	hopFree *hopMsg
	envFree *routeEnvelope
	arena   []tableRow // slab tail for newRow; grown in chunks
	ops     []liveOp   // deferred membership ops, committed at barriers
}

// liveOp is one deferred ground-truth membership mutation.
type liveOp struct {
	at   time.Duration
	kind uint8
	ref  NodeRef
}

const (
	opAlive  = uint8(iota) // endpoint came up (Start)
	opDead                 // endpoint went down (Stop)
	opInsert               // node entered the live index (join completed)
	opRemove               // node left the live index
)

// rngStreamPastry derives the per-shard protocol rng seeds from
// Config.Seed, keeping them disjoint from the single-stream serial seed
// (used verbatim for bit-compatibility) and from simnet's network streams.
const rngStreamPastry = int64(0x70617374)

// arenaChunk is the slab size of the routing-row arena, in rows.
const arenaChunk = 256

// newRow allocates a zeroed routing-table row from shard sh's arena.
// Slab allocation keeps a bootstrap at N=10^6 from creating millions of
// individually tracked heap objects; rows are never explicitly freed
// (a restarted node's old rows die with their slab).
func (r *Ring) newRow(sh int32) *tableRow {
	s := &r.sh[sh]
	if len(s.arena) == 0 {
		s.arena = make([]tableRow, arenaChunk)
	}
	row := &s.arena[0]
	s.arena = s.arena[1:]
	return row
}

// getEnv takes a routeEnvelope from shard sh's free list (or allocates
// one) and fills it for a fresh route.
func (r *Ring) getEnv(sh int32, key ids.ID, payload any, size int, class simnet.Class) *routeEnvelope {
	s := &r.sh[sh]
	e := s.envFree
	if e == nil {
		e = &routeEnvelope{}
	} else {
		s.envFree = e.next
	}
	*e = routeEnvelope{Key: key, Payload: payload, Size: size, Class: class,
		span: traceSpan(payload)}
	return e
}

// putEnv returns an envelope to shard sh's free list once its route has
// ended (delivered or dropped).
func (r *Ring) putEnv(sh int32, e *routeEnvelope) {
	e.Payload = nil
	s := &r.sh[sh]
	e.next = s.envFree
	s.envFree = e
}

// getHop takes a hopMsg wrapper from shard sh's free list (or allocates
// one) and fills it for the next hop. sentAt is the virtual send time the
// receiver turns into an RTT sample.
func (r *Ring) getHop(sh int32, env *routeEnvelope, origin simnet.Endpoint, sender NodeRef, sentAt time.Duration) *hopMsg {
	s := &r.sh[sh]
	m := s.hopFree
	if m == nil {
		m = &hopMsg{}
	} else {
		s.hopFree = m.next
	}
	m.Env, m.Origin, m.Sender, m.SentAt, m.next = env, origin, sender, sentAt, nil
	return m
}

// putHop returns a wrapper to shard sh's free list. Callers must copy out
// every field they still need first.
func (r *Ring) putHop(sh int32, m *hopMsg) {
	m.Env = nil
	s := &r.sh[sh]
	m.next = s.hopFree
	s.hopFree = m
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
		cfg:   cfg,
		net:   net,
		sched: net.Scheduler(),
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
	ns := net.NumShards()
	r.sh = make([]ringShard, ns)
	if ns == 1 {
		// Serial engines get the exact historical rng stream so every
		// existing seed reproduces byte-identically.
		r.sh[0].rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		base := runner.SplitSeed(cfg.Seed, rngStreamPastry)
		for i := range r.sh {
			r.sh[i].rng = rand.New(rand.NewSource(runner.SplitSeed(base, int64(i))))
		}
		r.deferOps = true
		r.aliveBits = make([]bool, net.NumEndpoints())
		net.OnBarrier(r.commitLiveOps)
	}
	r.startAccounting()
	return r
}

// Obs returns the observability layer attached to the underlying network
// (nil when disabled).
func (r *Ring) Obs() *obs.Obs { return r.o }

// Scheduler returns the engine driving the ring. Per-node timer work must
// use Node.Sched instead: under the sharded engine this engine-level
// handle pins timers to shard 0, which is a data race for state on any
// other shard.
func (r *Ring) Scheduler() simnet.Scheduler { return r.sched }

// Network returns the underlying simulated network.
func (r *Ring) Network() *simnet.Network { return r.net }

// AddNode registers a (initially offline) node with the given endsystemId
// at the given endpoint. The application receives upcalls once the node
// starts.
func (r *Ring) AddNode(ep simnet.Endpoint, id ids.ID, app Application) *Node {
	if r.nodes[ep] != nil {
		panic(fmt.Sprintf("pastry: endpoint %d already has a node", ep))
	}
	n := &Node{
		ring:  r,
		ep:    ep,
		id:    id,
		app:   app,
		sched: r.net.SchedulerFor(ep),
		shard: int32(r.net.ShardOf(ep)),
	}
	r.nodes[ep] = n
	r.net.Bind(ep, n)
	return n
}

// Node returns the node at an endpoint, or nil.
func (r *Ring) Node(ep simnet.Endpoint) *Node { return r.nodes[ep] }

// NumLive returns the current number of live nodes.
func (r *Ring) NumLive() int { return len(r.live) }

// LiveRefs returns a copy of the live node set, sorted by ID.
func (r *Ring) LiveRefs() []NodeRef {
	out := make([]NodeRef, len(r.live))
	copy(out, r.live)
	return out
}

// liveIndex returns the insertion position of id in the live index.
func (r *Ring) liveIndex(id ids.ID) int {
	return sort.Search(len(r.live), func(i int) bool { return !r.live[i].ID.Less(id) })
}

// setAlive flips a node's up/down state. The node's own field changes
// immediately (its shard observes its own transitions exactly); the
// committed cross-shard view follows at the next barrier.
func (r *Ring) setAlive(n *Node, v bool) {
	n.alive = v
	if r.aliveBits == nil {
		return
	}
	if r.net.Running() {
		k := opDead
		if v {
			k = opAlive
		}
		s := &r.sh[n.shard]
		s.ops = append(s.ops, liveOp{at: n.sched.Now(), kind: k, ref: n.Ref()})
		return
	}
	r.aliveBits[n.ep] = v
}

// noteJoined adds a node to the ground-truth live index (deferred to the
// next barrier under a running multi-shard engine).
func (r *Ring) noteJoined(n *Node) {
	if r.deferOps && r.net.Running() {
		s := &r.sh[n.shard]
		s.ops = append(s.ops, liveOp{at: n.sched.Now(), kind: opInsert, ref: n.Ref()})
		return
	}
	r.applyInsert(n.Ref())
}

// noteLeft removes a node from the ground-truth live index (deferred like
// noteJoined).
func (r *Ring) noteLeft(n *Node, ref NodeRef) {
	if r.deferOps && r.net.Running() {
		s := &r.sh[n.shard]
		s.ops = append(s.ops, liveOp{at: n.sched.Now(), kind: opRemove, ref: ref})
		return
	}
	r.applyRemove(ref)
}

// applyInsert adds a node to the live index.
func (r *Ring) applyInsert(ref NodeRef) {
	i := r.liveIndex(ref.ID)
	r.live = append(r.live, NodeRef{})
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = ref
}

// applyRemove drops a node from the live index.
func (r *Ring) applyRemove(ref NodeRef) {
	i := r.liveIndex(ref.ID)
	if i < len(r.live) && r.live[i].ID == ref.ID {
		r.live = append(r.live[:i], r.live[i+1:]...)
	}
}

// commitLiveOps applies every shard's deferred membership ops in
// canonical (time, shard, FIFO-seq) order. The engine calls it
// single-threaded at each window barrier, so during a window all shards
// read one immutable snapshot of the live index and the result is
// byte-identical for any worker count.
func (r *Ring) commitLiveOps() {
	total := 0
	for i := range r.sh {
		total += len(r.sh[i].ops)
	}
	if total == 0 {
		return
	}
	type tagged struct {
		op  liveOp
		sh  int32
		seq int
	}
	all := make([]tagged, 0, total)
	for i := range r.sh {
		for j, op := range r.sh[i].ops {
			all = append(all, tagged{op, int32(i), j})
		}
		r.sh[i].ops = r.sh[i].ops[:0]
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := &all[a], &all[b]
		if x.op.at != y.op.at {
			return x.op.at < y.op.at
		}
		if x.sh != y.sh {
			return x.sh < y.sh
		}
		return x.seq < y.seq
	})
	for i := range all {
		op := &all[i].op
		switch op.kind {
		case opAlive:
			r.aliveBits[op.ref.EP] = true
		case opDead:
			r.aliveBits[op.ref.EP] = false
		case opInsert:
			r.applyInsert(op.ref)
		case opRemove:
			r.applyRemove(op.ref)
		}
	}
}

// isLiveFrom reports whether the node with this exact ref is currently
// up, as visible from an event executing on shard sh: the node's own
// shard sees its exact state, remote shards the barrier-committed view.
func (r *Ring) isLiveFrom(sh int32, ref NodeRef) bool {
	m := r.nodes[ref.EP]
	if m == nil || m.id != ref.ID {
		return false
	}
	if r.aliveBits == nil || m.shard == sh || !r.net.Running() {
		return m.alive
	}
	return r.aliveBits[ref.EP]
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
// ReachabilityChanged after the reachable set changes. Installing an
// oracle pins the sharded engine to one worker: the oracle is shared
// mutable fault state consulted from every shard.
func (r *Ring) SetReachability(f func(a, b simnet.Endpoint) bool) {
	r.reach = f
	if f != nil {
		r.net.ForceSerial("reachability oracle")
	}
}

// reachable reports whether two endpoints can currently exchange messages.
func (r *Ring) reachable(a, b simnet.Endpoint) bool {
	return r.reach == nil || r.reach(a, b)
}

// liveLeafNeighbors returns the proper leafset membership around id, as
// visible from the endpoint from: its lh nearest live *reachable*
// successors and lh nearest such predecessors in ring order, excluding id
// itself. Absent partitions this set is both what a node's own leafset
// should contain and — by the symmetry of successor/predecessor rank —
// exactly the nodes whose leafsets contain id; during a partition each
// side sees only its own fragment of the ring.
func (r *Ring) liveLeafNeighbors(from simnet.Endpoint, id ids.ID, lh int) []NodeRef {
	n := len(r.live)
	if n == 0 {
		return nil
	}
	k := 2 * lh
	if k > n {
		k = n
	}
	out := make([]NodeRef, 0, k)
	seen := make(map[ids.ID]bool, k+1)
	seen[id] = true
	at := r.liveIndex(id) % n
	for s, i := 0, at; s < lh && i < at+n; i++ { // successors
		ref := r.live[i%n]
		if !seen[ref.ID] && r.reachable(from, ref.EP) {
			seen[ref.ID] = true
			out = append(out, ref)
			s++
		}
	}
	for s, i := 0, at-1; s < lh && i > at-1-n; i-- { // predecessors
		ref := r.live[((i%n)+n)%n]
		if !seen[ref.ID] && r.reachable(from, ref.EP) {
			seen[ref.ID] = true
			out = append(out, ref)
			s++
		}
	}
	return out
}

// ReachabilityChanged reacts to a change in the reachability oracle (a
// partition forming or healing). For every live node: leafset members that
// are no longer reachable stop answering heartbeats, so their death is
// noted after the usual detection delay of one to two heartbeat periods
// (unless the cut heals first); and within one heartbeat period the node
// reconciles its leafset against the reachable ground truth, modeling the
// leafset exchange piggybacked on heartbeats discovering newly reachable
// neighbors after a heal. Iteration over the ID-sorted live index keeps
// the rng draw order deterministic; each node's notifications land on its
// own wheel (its own clock), with delays drawn from its shard's rng.
func (r *Ring) ReachabilityChanged() {
	for _, ref := range r.live {
		n := r.nodes[ref.EP]
		if n == nil || !n.alive || n.joining {
			continue
		}
		rng := r.sh[n.shard].rng
		for _, m := range n.leaf {
			if r.reachable(n.ep, m.EP) {
				continue
			}
			m := m
			delay := heartbeatPeriod +
				time.Duration(rng.Float64()*float64(heartbeatPeriod))
			n.sched.After(delay, func() {
				if n.alive && !n.joining && !r.reachable(n.ep, m.EP) {
					n.noteDead(m)
				}
			})
		}
		delay := time.Duration(rng.Float64() * float64(heartbeatPeriod))
		n.sched.After(delay, func() { n.reconcileLeafset() })
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
// truth, as the join-time state transfer would. Entry picks draw from rng
// (the caller's shard stream); rows come from alloc, letting nodes
// building their own tables use their shard's arena while join replies —
// whose rows are flattened and discarded — use plain heap rows. It
// returns the table rows and the number of entries (for bandwidth
// charging).
func (r *Ring) buildRoutingTable(id ids.ID, rng *rand.Rand, alloc func() *tableRow) (rows []*tableRow, entries int) {
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
			pick := r.live[dlo+rng.Intn(dhi-dlo)]
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
// traffic described in the package comment. Each shard charges its own
// endpoints from a timer on its own wheel, so the per-endpoint statistics
// rows stay single-writer under parallel windows.
func (r *Ring) startAccounting() {
	ns := r.net.NumShards()
	for s := 0; s < ns; s++ {
		shard := s
		r.net.ShardScheduler(shard).Every(accountingPeriod, func() {
			secs := accountingPeriod.Seconds()
			hbPerSec := float64(2*leafsetHalf) * float64(heartbeatBytes) /
				heartbeatPeriod.Seconds()
			probe := r.expectedProbeRate()
			perNode := int((hbPerSec + probe) * secs)
			for _, ref := range r.live {
				if ns > 1 && r.net.ShardOf(ref.EP) != shard {
					continue
				}
				r.net.AccountAggregate(ref.EP, simnet.ClassPastry, perNode, perNode)
			}
		})
	}
}
