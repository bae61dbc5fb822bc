// Package aggtree implements Seaweed's failure-resilient result
// aggregation tree (§3.4). While completeness predictors are generated in
// seconds, incremental result generation spans hours: endsystems submit
// results as they become available, and each contribution must be counted
// exactly once in the result at the root despite churn.
//
// The tree is embedded in the Pastry namespace, one tree per queryId. A
// tree vertex is a key (vertexId); the deterministic parent function
//
//	V(queryId, vertexId) = PREFIX(vertexId, 128/b-(len+1)) + SUFFIX(queryId, len+1)
//
// with len the number of digits vertexId already shares with queryId at
// the suffix end, replaces one more low-order digit with the queryId's, so
// repeated application converges to the queryId itself at the root. An
// endsystem submitting a result applies V starting from its own
// endsystemId until it reaches a vertexId it is no longer the numerically
// closest endsystem to; because the namespace is sparsely populated, this
// skips the many levels where the endsystem would be its own parent and
// yields a tree with N leaves and O(log N) depth.
//
// Each interior vertex keeps O(1) state — the latest versioned
// contribution per child — and is realized as a replica group: the primary
// is whatever endsystem is currently numerically closest to the vertexId
// (so Pastry routing always finds it), and it replicates its state to m
// backups as it propagates a new aggregate to its parent: the first change
// after a quiet second at once, a burst of further ones as one table when
// the second is up (replicateDelta). When membership changes move a
// vertexId's root, the new primary takes over from the replicated state.
// Versioned, keyed contributions make retransmissions and primary
// handovers idempotent: at-least-once delivery plus at-most-once counting.
// A leaf's half of that is literal: it sends its contribution until the
// entry vertex's primary acknowledges holding it, and again whenever that
// vertex's root moves to another endsystem.
//
// An Engine keeps one record per query (queryState) in one table: what it
// knows of the query, whether it has run it in this uptime session, its
// own contribution and entry vertexId — the only part that survives a
// restart — the leaf retransmission timer and the ack that stops it, and
// the vertices it hosts for the query's tree. Everything the protocol does
// for a query starts from that record, and vertices point back at it. A
// cancel ends the record: the query's id becomes a tombstone that owns
// nothing and refuses the query for good.
package aggtree

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// Config parameterizes the aggregation trees.
type Config struct {
	// Backups is m, the number of state replicas each vertex primary
	// maintains (paper simulation: m=3).
	Backups int
	// RefreshPeriod is how often a vertex primary re-propagates its
	// aggregate and state (repairing any losses from churn). 0 disables.
	RefreshPeriod time.Duration
	// QueryTTL is how long a query stays active after an endsystem first
	// learns of it: expired queries drop their tree state and stop being
	// advertised to joiners ("incremental results will thus continue to
	// arrive for any query until it times out or is explicitly
	// canceled"). The paper terminates its evaluation queries after 48
	// hours. 0 disables expiry.
	QueryTTL time.Duration
	// DisableRepair turns off churn repair: leafset-change takeovers /
	// state pushes and the periodic refresh re-propagation. Ablation
	// only: it exists so the chaos invariant checker can demonstrate that
	// aggregate state stranded by crashes is otherwise lost.
	DisableRepair bool

	// Reassert enables the upward re-assertion ladder at interior
	// vertices: a routed forward that no newer content supersedes is
	// retransmitted on exponential backoff (10 s doubling over five
	// rungs), so a forward the network dropped surfaces at the parent in
	// seconds instead of at the next unconditional refresh pass (see
	// hedge.go). Off by default: it adds messages, so every run without
	// it stays byte-identical to before the feature existed.
	Reassert bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Backups: 3, RefreshPeriod: 5 * time.Minute, QueryTTL: 48 * time.Hour}
}

// Host is the embedding Seaweed node.
type Host interface {
	// PastryNode returns the overlay node the engine runs on.
	PastryNode() *pastry.Node
	// ResultDelivered is called at the query's injector whenever the root
	// aggregate changes: the current incremental result and the number of
	// endsystems that have contributed. span is the partial event's span
	// (0 when tracing is off), so the injector's completion event can
	// chain onto the result that triggered it.
	ResultDelivered(qid ids.ID, part agg.Partial, contributors int64, span uint64)
}

// V computes the parent vertexId: one more low-order digit of vertexId is
// replaced by the queryId's, growing the shared suffix. V(q, v) == q once
// v == q.
func V(queryID, vertexID ids.ID, b int) ids.ID {
	digits := ids.DigitsPerID(b)
	l := ids.CommonSuffixLen(queryID, vertexID, b)
	if l >= digits {
		return queryID
	}
	return ids.ConcatPrefixSuffix(vertexID, digits-(l+1), queryID, l+1, b)
}

// contribution is one child's latest versioned input to a vertex.
type contribution struct {
	Version      uint64
	Part         agg.Partial
	Contributors int64
}

// vertexState is the O(1)-per-child state of one tree vertex.
type vertexState struct {
	q         *queryState // the record of the query whose tree this vertex is in
	id        ids.ID      // the vertexId
	children  childTable
	upVersion uint64
	refresh   simnet.Timer
	primary   bool
	// dirty marks state changes not yet propagated upward; the periodic
	// refresh re-propagates dirty vertices at the next tick and idle ones
	// only on the safety pass, and an idle vertex's chain sleeps in
	// between (armRefresh): an idle query costs a tick per primary every
	// third period, and one per backup at expiry.
	dirty bool
	// cause is the span of the last contribution that changed this
	// vertex's aggregate — the causal parent of the next upward forward.
	cause uint64

	// Upward re-assertion ladder (zero unless Config.Reassert): the
	// retry of the latest remote forward, which counts the rungs the
	// current content has used (see hedge.go).
	reassert simnet.Retry

	// timers holds what the refresh chain and the replication gate keep
	// beside their handles, callbacks included.
	timers *vertexTimers
	// Coalesced replication (see replicateDelta): the timer that sends the
	// table once a change is waiting.
	flush simnet.Timer
}

// vertexTimers is the part of a vertex's timer state that outlives one
// life of the vertexState: it is allocated with the vertexState and goes
// with it through the spare list, so the refresh and flush callbacks are
// built once per object and a reused vertex arms its timers without
// allocating. Kept in the vertex, the two instants and two callbacks
// would take it out of its size class.
type vertexTimers struct {
	// born is the instant the vertex entered its record, the phase of its
	// refresh chain (armRefresh).
	born time.Duration
	// replQuiet is the instant up to which a changed child waits to go to
	// the backups in one table (replicateDelta).
	replQuiet time.Duration
	// refresh and flush are the callbacks of the vertex's refresh chain
	// and of its table flush, built at their first arm.
	refresh, flush func()
}

func (v *vertexState) aggregate() (agg.Partial, int64) {
	var part agg.Partial
	var contributors int64
	for i := range v.children {
		c := &v.children[i].c
		part = part.Merge(c.Part)
		contributors += c.Contributors
	}
	return part, contributors
}

// resubmitSchedule is the leaf retransmission schedule: an
// unacknowledged contribution is re-sent 20s, 1m, 3m and 9m after the one
// before, and every 9m from then on, until it is acknowledged or the query
// ends.
var resubmitSchedule = simnet.Backoff{First: 20 * time.Second, Grow: 3, Cap: 9 * time.Minute}

// Schedules returns the leaf retransmission schedule and the re-assertion
// ladder's.
func Schedules() (resubmit, reassert simnet.Backoff) { return resubmitSchedule, reassertSchedule }

const (
	// replWindow is the most a vertex's backups may lag its primary, and so
	// the least time between two replications of one vertex. A backup's
	// copy is of use only once the overlay has noticed the primary gone and
	// handed the vertex on, which takes pastry at least its per-hop timeout
	// of one second (and its heartbeat period of 30 s without traffic):
	// copies fresher than that buy no takeover anything.
	replWindow = time.Second
)

// queryState is everything this endsystem keeps about one query (see
// DESIGN.md, "Per-query state on an endsystem"). Engine.queries holds one
// per query the endsystem has heard of and not seen canceled, until Reset.
type queryState struct {
	qid ids.ID

	// The registry half is volatile. known is false between a restart and
	// the next time the query is heard of, which counts as expired.
	known bool
	// executed: this endsystem has run the query in this uptime session
	// (ClaimExecution). Reset clears it with the rest of the volatile half.
	executed bool
	// asserted: own was submitted in this incarnation. Reset clears it, so
	// the rejoin re-execution re-asserts an unchanged result (see Submit).
	asserted bool
	// acked and ackedBy belong with resubmit below; here they share the
	// flags' word, which keeps the record in its size class.
	acked     bool
	ackedBy   int32
	query     *relq.Query
	injector  simnet.Endpoint
	firstSeen time.Duration
	// cause is the span under which this endsystem first learned of the
	// query; availability-wait handoffs to rejoining neighbors chain off
	// it.
	cause uint64

	// The durable half survives Reset: this endsystem's own latest
	// contribution (Version 0 before the first Submit) and the vertexId it
	// first submitted to — the paper's "persists that vertexId with the
	// query". Re-submissions after churn carry the next version to the same
	// vertex, which is what keeps each endsystem's contribution counted
	// exactly once even when leafset changes would now suggest a different
	// entry point.
	own   contribution
	entry ids.ID

	// resubmit is the leaf retransmission of own, armed while own is
	// unacknowledged, and span the span of its latest send, which the next
	// retransmission chains off. acked, above, says the entry vertex's
	// primary holds own's current version, and ackedBy the endpoint that
	// said so: an ack stands only for that primary. All four are volatile:
	// a restart drops them, and the rejoin path's fresh Submit starts over.
	resubmit simnet.Retry
	span     uint64

	// vertices are the vertex states hosted here for this query's tree,
	// ordered by vertexId: 1.6 on average, four at the 99th percentile.
	vertices []*vertexState
}

// findVertex returns the index the vertex is at, or would be inserted at.
func (st *queryState) findVertex(id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(st.vertices, id, func(v *vertexState, id ids.ID) int { return v.id.Cmp(id) })
}

// Engine runs the aggregation protocol for one endsystem.
type Engine struct {
	cfg  Config
	host Host
	node *pastry.Node // the host's overlay node, fixed at construction
	// queries is the engine's one table: a record per query, keyed by
	// queryId. tombstones are the canceled queries' queryIds, in order
	// (applyCancel): a query has a record or a tombstone, never both.
	queries    map[ids.ID]*queryState
	tombstones []ids.ID

	// hosted counts the vertices in the table's records. While it is
	// above zero, records and vertices that leave the table wait on the
	// spare lists for register and vertex to reuse them, each with its
	// array (a record's vertex slice, a vertex's child table); when it
	// falls to zero, and on Reset, the lists go (releaseVertex).
	hosted        int
	spareQueries  []*queryState
	spareVertices []*vertexState

	// Observability handles, cached at construction (nil-safe no-ops when
	// disabled).
	o          *obs.Obs
	cSubmits   *obs.Counter   // aggtree_submissions
	cMerged    *obs.Counter   // aggtree_partials_merged
	cDups      *obs.Counter   // aggtree_dup_contributions
	cTakeovers *obs.Counter   // aggtree_takeovers
	cRefresh   *obs.Counter   // aggtree_refresh_repairs
	cResubmit  *obs.Counter   // aggtree_resubmits
	cAcks      *obs.Counter   // aggtree_acks
	cRepls     *obs.Counter   // aggtree_replications: replMsgs sent
	cReplRows  *obs.Counter   // aggtree_repl_entries: child entries they carried
	cReasserts *obs.Counter   // aggtree_hedge_reasserts: ladder rungs fired
	hDepth     *obs.Histogram // aggtree_entry_depth
	hFanin     *obs.Histogram // aggtree_fanin_delay_ns: routed submit latency

	// backups is backupSet's reused scratch buffer (engines are
	// single-threaded).
	backups []pastry.NodeRef
}

// NewEngine creates an engine for the host.
func NewEngine(host Host, cfg Config) *Engine {
	node := host.PastryNode()
	o := node.Ring().Obs()
	return &Engine{
		cfg:     cfg,
		host:    host,
		node:    node,
		queries: make(map[ids.ID]*queryState),

		o:          o,
		cSubmits:   o.Counter("aggtree_submissions"),
		cMerged:    o.Counter("aggtree_partials_merged"),
		cDups:      o.Counter("aggtree_dup_contributions"),
		cTakeovers: o.Counter("aggtree_takeovers"),
		cRefresh:   o.Counter("aggtree_refresh_repairs"),
		cResubmit:  o.Counter("aggtree_resubmits"),
		cAcks:      o.Counter("aggtree_acks"),
		cRepls:     o.Counter("aggtree_replications"),
		cReplRows:  o.Counter("aggtree_repl_entries"),
		cReasserts: o.Counter("aggtree_hedge_reasserts"),
		hDepth:     o.Histogram("aggtree_entry_depth"),
		hFanin:     o.DurationHistogram("aggtree_fanin_delay_ns"),
	}
}

// Reset clears the volatile state (the endsystem restarted). Hosted
// vertex state is dropped — the exactly-once argument only needs the
// replica group to survive — but this endsystem's own contribution and
// its persisted entry vertexId are durable, exactly as the paper
// prescribes: a rejoining endsystem re-submits the same versioned
// contribution to the same vertex, replacing rather than duplicating. A
// record that holds neither is deleted; one that does is kept with its
// registry half unknown. Tombstones are kept: a cancel outlives restarts.
func (e *Engine) Reset() {
	for qid, st := range e.queries {
		for _, v := range st.vertices {
			e.releaseVertex(v) // the last one takes the spare lists with it
		}
		st.resubmit.Cancel()
		if st.own.Version == 0 {
			delete(e.queries, qid)
			continue
		}
		*st = queryState{qid: qid, own: st.own, entry: st.entry}
	}
}

// releaseVertex retires a vertex that has left its record: its timers are
// canceled (a canceled timer never fires) and it is cleared. It waits on
// the spare list, its child table's array with it, unless the engine now
// hosts no vertex: then the spare lists go, so an engine between queries
// holds nothing it is not using.
func (e *Engine) releaseVertex(v *vertexState) {
	v.refresh.Cancel()
	v.reassert.Cancel()
	v.flush.Cancel()
	t := v.timers
	*t = vertexTimers{refresh: t.refresh, flush: t.flush}
	*v = vertexState{children: v.children[:0], timers: t}
	if e.hosted--; e.hosted == 0 {
		e.spareQueries, e.spareVertices = nil, nil
		return
	}
	e.spareVertices = append(e.spareVertices, v)
}

// releaseQuery clears a record that has left the table and keeps it, its
// vertex slice's array with it, while the engine hosts a vertex.
func (e *Engine) releaseQuery(st *queryState) {
	*st = queryState{vertices: st.vertices[:0]}
	if e.hosted > 0 {
		e.spareQueries = append(e.spareQueries, st)
	}
}

// pop takes the last entry off a spare list, or returns nil.
func pop[T any](spare *[]*T) *T {
	n := len(*spare)
	if n == 0 {
		return nil
	}
	x := (*spare)[n-1]
	*spare = (*spare)[:n-1]
	return x
}

// ClaimExecution tells the engine about a query that reached this
// endsystem (by dissemination or in a neighbor's list) and reports whether
// to run it: true the first time in this uptime session, false after that
// and for a canceled query. It is the one guard that makes an endsystem
// execute a query at most once per uptime, however often the query
// arrives. The injector endpoint is where root results go; cause is the
// span under which the query arrived here (0 without tracing).
func (e *Engine) ClaimExecution(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) bool {
	st := e.register(qid, q, injector, cause)
	if st == nil || st.executed {
		return false
	}
	st.executed = true
	return true
}

// register returns the query's record, creating it if this is the first
// the endsystem keeps about the query and filling in the registry half if
// this is the first it hears of the query in this incarnation. For a
// canceled query it returns nil and leaves the tombstone as it is.
func (e *Engine) register(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) *queryState {
	st := e.queries[qid]
	if st == nil {
		if e.canceled(qid) {
			return nil
		}
		if st = pop(&e.spareQueries); st == nil {
			st = new(queryState)
		}
		st.qid = qid
		e.queries[qid] = st
	}
	if !st.known {
		st.known, st.query, st.injector, st.cause = true, q, injector, cause
		st.firstSeen = e.node.Sched().Now()
	}
	return st
}

// CancelPropagate cancels a query at this endsystem — the injector-side
// entry point — and broadcasts the cancellation down the query's
// aggregation tree so every vertex replica group drops its state and
// every leaf contributor stops retransmitting, instead of all of them
// waiting out the TTL. The paper keeps incremental results flowing
// "until it times out or is explicitly canceled"; this is the explicit
// path. Propagation is best-effort: endsystems a cancel never reaches
// (down, or partitioned) still reclaim via expiry.
func (e *Engine) CancelPropagate(qid ids.ID) {
	m := &cancelMsg{QID: qid}
	e.applyCancel(m)
	if !e.node.IsRootOf(qid) {
		// Hand the broadcast to the root vertex's primary, which fans it
		// down the whole tree.
		e.node.Route(qid, m, cancelMsgSize(), simnet.ClassQuery)
	}
}

// canceled reports whether qid has a tombstone here.
func (e *Engine) canceled(qid ids.ID) bool {
	_, ok := slices.BinarySearchFunc(e.tombstones, qid, ids.ID.Cmp)
	return ok
}

// bury gives qid a tombstone, if it has none.
func (e *Engine) bury(qid ids.ID) {
	if i, ok := slices.BinarySearchFunc(e.tombstones, qid, ids.ID.Cmp); !ok {
		e.tombstones = slices.Insert(e.tombstones, i, qid)
	}
}

// applyCancel processes a cancellation at this endsystem: stop the local
// retransmission timer, drop every hosted vertex, and — for every dropped
// vertex this endsystem was the primary of — fan the cancel to the
// vertex's children and backups. Then the record gives way to a tombstone,
// whether or not there was a record: a late submission or replication
// finds it and is dropped rather than resurrecting state, and the
// endsystem neither runs nor submits the query again (ClaimExecution,
// Submit). Fan-out keys off the vertex's primary flag, not off which
// cancel arrived first: a node can be backup for one vertex and primary
// for another in the same tree, and a backup-targeted cancel reaching it
// first must still propagate the primary vertex's subtree. The fan-out
// passes m itself on: a cancel says only which query, and receivers only
// read it, so one message serves every child and backup down the tree.
func (e *Engine) applyCancel(m *cancelMsg) {
	st := e.queries[m.QID]
	if st == nil {
		e.bury(m.QID)
		return
	}
	st.resubmit.Cancel()
	// Vertices leave the record in vertexId order, each before the cancel
	// fans out from it: Route below can deliver to self synchronously,
	// re-entering applyCancel, which finds the record still in the table,
	// carries on with what is left and ends the record itself. A vertex is
	// released by the call that took it off the record, once its fan-out
	// is done with it.
	for e.queries[m.QID] == st && len(st.vertices) > 0 {
		v := st.vertices[0]
		st.vertices = slices.Delete(st.vertices, 0, 1)
		if v.primary {
			for _, child := range v.children { // in id order
				e.node.Route(child.id, m, cancelMsgSize(), simnet.ClassQuery)
			}
			// Backups mirror this vertex's state; they drop it on receipt and
			// only propagate further for vertices they are primary of.
			for _, b := range e.backupSet(v.id) {
				e.node.Ring().Network().Send(e.node.Endpoint(), b.EP,
					cancelMsgSize(), simnet.ClassQuery, m)
			}
		}
		e.releaseVertex(v)
	}
	// Only the call that writes the tombstone releases the record: one
	// that a re-entrant call has already ended finds it gone.
	if e.queries[m.QID] == st {
		delete(e.queries, m.QID)
		e.bury(m.QID)
		e.releaseQuery(st)
	}
}

// expired reports whether a query is canceled, unknown or past its TTL.
func (e *Engine) expired(st *queryState) bool {
	if st == nil || !st.known {
		return true
	}
	return e.cfg.QueryTTL > 0 && e.node.Sched().Now()-st.firstSeen > e.cfg.QueryTTL
}

// ActiveQuery is one entry of the list handed to endsystems that join
// while queries are in flight: the query, where its results go, and the
// span under which the lister learned of it.
type ActiveQuery struct {
	ID       ids.ID
	Query    *relq.Query
	Injector simnet.Endpoint
	Cause    uint64
}

// ActiveQueries returns the live (non-expired, non-canceled) queries the
// engine knows about, in queryId order.
func (e *Engine) ActiveQueries() []ActiveQuery {
	var out []ActiveQuery
	for qid, st := range e.queries {
		if !e.expired(st) {
			out = append(out, ActiveQuery{ID: qid, Query: st.query, Injector: st.injector, Cause: st.cause})
		}
	}
	slices.SortFunc(out, func(a, b ActiveQuery) int { return a.ID.Cmp(b.ID) })
	return out
}

// IsActive reports whether the query is known, unexpired and uncanceled.
func (e *Engine) IsActive(qid ids.ID) bool {
	return !e.expired(e.queries[qid])
}

// EntryVertex returns the vertexId this endsystem persisted as its entry
// point into qid's aggregation tree, if it has submitted. Experiments use
// it to score entry-edge quality (predicted vs actual delay to the
// vertex's primary) without touching protocol state.
func (e *Engine) EntryVertex(qid ids.ID) (ids.ID, bool) {
	if st := e.queries[qid]; st != nil && st.own.Version > 0 {
		return st.entry, true
	}
	return ids.ID{}, false
}

// --------------------------------------------------------------- messages

// submitMsg carries a child contribution to a vertex; routed by key, so it
// always reaches the vertex's current primary. Submissions are pooled: one
// only travels through pastry.Node.Route, which delivers it synchronously
// or inside a route envelope the duplication fault never copies, so it
// reaches applySubmit at most once and goes back to the pool when that
// returns (applyAndRecycle); one the network drops is simply garbage. The
// pool is package-level (clusters in parallel sweep runs share it), so it
// is a sync.Pool, as metadata's push wrappers are.
type submitMsg struct {
	QID    ids.ID
	Vertex ids.ID
	Child  ids.ID
	C      contribution
	// WantAck is set on a leaf's own contribution: the primary that holds
	// it at this version or newer answers the origin with an ackMsg.
	WantAck bool
	// Injector lets a vertex learn the query's home when it first hears
	// of the query through the tree rather than through dissemination.
	Injector simnet.Endpoint
	Query    *relq.Query
	// Cause is the span of the sender-side event behind this contribution
	// (trace metadata; excluded from wire sizes like dissem's).
	Cause uint64
	// SentAt is the virtual send time of a routed submission (zero for
	// locally applied ones). Like Cause it is in-struct metadata excluded
	// from wire sizes; the receiving vertex turns it into the
	// aggtree_fanin_delay_ns observation — the child→vertex fan-in
	// latency the coordinate bias exists to shrink.
	SentAt time.Duration
}

func submitMsgSize() int { return 3*ids.Bytes + 8 + agg.EncodedPartialSize + 8 + 1 }

var submitMsgPool = sync.Pool{New: func() any { return new(submitMsg) }}

// newSubmit takes a submission from the pool, set to m.
func newSubmit(m submitMsg) *submitMsg {
	p := submitMsgPool.Get().(*submitMsg)
	*p = m
	return p
}

// applyAndRecycle applies a submission and puts it back in the pool.
func (e *Engine) applyAndRecycle(origin simnet.Endpoint, m *submitMsg) {
	e.applySubmit(origin, m)
	*m = submitMsg{}
	submitMsgPool.Put(m)
}

// ackMsg tells a leaf that the sender, its entry vertex's primary, holds
// the leaf's contribution at Version: sent directly to the origin of every
// submitMsg that asks for it, duplicates included, since a duplicate means
// an earlier ack may have been lost.
type ackMsg struct {
	QID     ids.ID
	Child   ids.ID
	Version uint64
}

func ackMsgSize() int { return 2*ids.Bytes + 8 }

// replMsg replicates a vertex's state to its backups: the whole child
// table in Children (takeovers, membership changes, the flush that ends a
// burst of updates), or — Children nil — the one entry that changed, inline
// as (Child, C), for the first update after a quiet replWindow. The wire
// size counts entries either way (replMsgSize).
type replMsg struct {
	QID       ids.ID
	Vertex    ids.ID
	Children  childTable
	Child     ids.ID
	C         contribution
	UpVersion uint64
	Injector  simnet.Endpoint
	Query     *relq.Query
	Cause     uint64
}

// entries is how many child entries the message carries.
func (m *replMsg) entries() int {
	if m.Children == nil {
		return 1
	}
	return len(m.Children)
}

func replMsgSize(children int) int {
	return 2*ids.Bytes + 8 + children*(ids.Bytes+8+agg.EncodedPartialSize+8)
}

// resultMsg delivers the root aggregate to the injector.
type resultMsg struct {
	QID          ids.ID
	Part         agg.Partial
	Contributors int64
	Cause        uint64
}

func resultMsgSize() int { return ids.Bytes + agg.EncodedPartialSize + 8 }

// cancelMsg broadcasts an explicit query cancellation down the
// aggregation tree. The receiver drops every vertex it hosts for the
// query and fans the cancel on from each vertex it was primary of: to the
// vertex's children (child keys are lower tree vertices, where the cancel
// recurses at their primaries, or leaf contributors' endsystemIds, where
// it stops their retransmissions) and to the vertex's backups. The
// broadcast is best-effort — a lost cancel leaves state for the TTL
// expiry backstop to reclaim — and idempotent: a second receipt finds no
// vertices left to forward from. A submission that reaches an endsystem
// holding the tombstone is answered with the same message (applySubmit).
type cancelMsg struct {
	QID ids.ID
}

func cancelMsgSize() int { return ids.Bytes }

// TraceQuery implements pastry.Traced, attributing routing events for
// aggregation traffic to the query's trace. Results and acks are sent
// directly, never routed, so they need neither.
func (m *submitMsg) TraceQuery() string { return m.QID.Short() }
func (m *replMsg) TraceQuery() string   { return m.QID.Short() }
func (m *cancelMsg) TraceQuery() string { return m.QID.Short() }

// TraceSpan implements pastry.TracedSpan for verbose hop-chain tracing.
func (m *submitMsg) TraceSpan() uint64 { return m.Cause }
func (m *replMsg) TraceSpan() uint64   { return m.Cause }

// --------------------------------------------------------------- protocol

// Submit contributes this endsystem's local result for a query. It may be
// called again with an updated partial (e.g. after a local data change);
// the new version replaces the old exactly once, and a partial equal to
// the one already submitted in this incarnation is not sent again. After a
// restart the first Submit goes out whatever it carries: the entry vertex
// (or its whole replica group) may have died while this endsystem was
// down, and the versioned replacement keeps the re-assertion exactly-once.
// A query this endsystem holds as canceled is refused: the cancel has
// passed, and a contribution would only be answered with it again. cause is
// the span of the execution that produced the partial (0 when tracing is
// off).
func (e *Engine) Submit(qid ids.ID, part agg.Partial, q *relq.Query, injector simnet.Endpoint, cause uint64) {
	st := e.register(qid, q, injector, cause)
	if st == nil || st.asserted && st.own.Part == part {
		return
	}
	if st.own.Version == 0 {
		st.entry = e.chooseEntry(qid)
	}
	st.own = contribution{Version: st.own.Version + 1, Part: part, Contributors: 1}
	st.asserted, st.acked = true, false
	e.cSubmits.Inc()
	span := e.o.EmitSpan(cause, obs.Event{Kind: obs.KindSubmit, Query: e.o.QueryTag(qid),
		EP: int(e.node.Endpoint()), N: int64(st.own.Version)})
	e.sendOwn(st, span)
}

// sendOwn sends this endsystem's own contribution under span and starts
// its retransmission, unless the send acknowledged it in place. The
// single routed submitMsg is the only copy of the contribution until a
// vertex primary replicates it; a drop during a burst or partition would
// otherwise lose those rows for the whole life of the query — vertex
// repair cannot resurrect state that never arrived anywhere. So the leaf
// sends until the primary's ack (applyAck) stops the retry, or the query
// is canceled or expires. Re-sending the same version is idempotent at
// the vertex (applySubmit counts it as a duplicate and acks it again), so
// the exactly-once invariant is untouched. A newer Submit restarts the
// schedule for its own version.
func (e *Engine) sendOwn(st *queryState, span uint64) {
	e.sendSubmission(st, span)
	st.resubmit.Cancel()
	st.span = span
	if e.cfg.DisableRepair || st.acked {
		return
	}
	st.resubmit.Start(e.node.Sched(), &resubmitSchedule, func() { e.resubmit(st) })
}

// resubmit is the leaf retransmission's timeout: own goes out again, and
// the next timeout is armed unless that send acknowledged it in place.
func (e *Engine) resubmit(st *queryState) {
	if !e.node.Alive() || e.expired(st) {
		st.resubmit.Cancel()
		return
	}
	e.cResubmit.Inc()
	st.span = e.o.EmitSpan(st.span, obs.Event{Kind: obs.KindAggResubmit, Query: e.o.QueryTag(st.qid),
		EP: int(e.node.Endpoint()), N: int64(st.resubmit.N() + 1)})
	e.sendSubmission(st, st.span)
	if st.acked {
		st.resubmit.Cancel()
		return
	}
	st.resubmit.Again(&resubmitSchedule, nil)
}

// chooseEntry picks where this endsystem enters qid's tree: the first
// vertex on the V-chain from its own endsystemId that it is not the root
// of (or, with coordinates, the nearest of the chain from there up).
func (e *Engine) chooseEntry(qid ids.ID) ids.ID {
	v := e.node.ID()
	digits := ids.DigitsPerID(pastry.B)
	depth := 0
	for i := 0; i <= digits && v != qid; i++ {
		if !e.node.IsRootOf(v) {
			break
		}
		v = V(qid, v, pastry.B)
		depth++
	}
	// With network coordinates on the ring, latency biases the entry.
	// Without them the id-only baseline holds byte-for-byte.
	if sp := e.node.Ring().Coords(); sp != nil {
		v = e.nearestEntryVertex(sp, qid, v)
	}
	// Entry depth measures how many levels the sparse namespace let this
	// endsystem skip: tree depth from the leaves' perspective.
	e.hDepth.Observe(int64(depth))
	return v
}

// sendSubmission routes this endsystem's contribution to its persisted
// entry vertex, so that re-submissions (including after a restart) land on
// the same vertex and replace the previous version.
func (e *Engine) sendSubmission(st *queryState, cause uint64) {
	msg := newSubmit(submitMsg{QID: st.qid, Vertex: st.entry, Child: e.node.ID(), C: st.own,
		Injector: st.injector, Query: st.query, Cause: cause})
	if e.node.IsRootOf(st.entry) {
		// This endsystem hosts the vertex itself (it is the root of the
		// whole chain up to the queryId): nothing can be lost, and the
		// contribution is acknowledged in place.
		e.applyAndRecycle(e.node.Endpoint(), msg)
		st.acked, st.ackedBy = true, int32(e.node.Endpoint())
		return
	}
	msg.WantAck = true
	msg.SentAt = e.node.Sched().Now()
	e.node.Route(st.entry, msg, submitMsgSize(), simnet.ClassQuery)
}

// nearestEntryVertex walks the V-chain from the id-only entry vertex up
// to the queryId and returns the chain vertex whose current primary has
// the lowest RTT sp predicts from this endsystem. Every chain vertex is an
// id-valid entry (its subtree contains this endsystem's leaf position);
// entering higher merely skips levels, which the versioned child tables
// already tolerate. The comparison is strict and the chain is walked
// deepest-first, so the id-only default wins ties and the choice is
// byte-deterministic per seed — primaries come from the ring's
// ground-truth index.
func (e *Engine) nearestEntryVertex(sp *coords.Space, qid, entry ids.ID) ids.ID {
	self := e.node.Endpoint()
	best := entry
	var bestRTT time.Duration
	have := false
	v := entry
	digits := ids.DigitsPerID(pastry.B)
	for i := 0; i <= digits; i++ {
		if root, ok := e.node.Ring().Root(v); ok {
			rtt := sp.PredictRTT(self, root.EP)
			if !have || rtt < bestRTT {
				best, bestRTT, have = v, rtt, true
			}
		}
		if v == qid {
			break
		}
		v = V(qid, v, pastry.B)
	}
	return best
}

// HandleMessage processes an aggregation message; it reports whether the
// payload belonged to this engine.
func (e *Engine) HandleMessage(from simnet.Endpoint, payload any) bool {
	switch m := payload.(type) {
	case *submitMsg:
		e.applyAndRecycle(from, m)
	case *ackMsg:
		e.applyAck(from, m)
	case *replMsg:
		e.applyRepl(m)
	case *resultMsg:
		span := e.o.EmitSpan(m.Cause, obs.Event{Kind: obs.KindPartial, Query: e.o.QueryTag(m.QID),
			EP: int(e.node.Endpoint()),
			N:  m.Contributors, V: float64(m.Part.Count)})
		e.host.ResultDelivered(m.QID, m.Part, m.Contributors, span)
	case *cancelMsg:
		e.applyCancel(m)
	default:
		return false
	}
	return true
}

// vertex returns the state of one of the query's vertices hosted here,
// creating it (and arming its refresh) if this is the first it holds.
func (e *Engine) vertex(st *queryState, id ids.ID) *vertexState {
	i, ok := st.findVertex(id)
	if ok {
		return st.vertices[i]
	}
	v := pop(&e.spareVertices)
	if v == nil {
		v = &vertexState{timers: new(vertexTimers)}
	}
	v.q, v.id = st, id
	e.hosted++
	st.vertices = slices.Insert(st.vertices, i, v)
	e.armRefresh(v)
	return v
}

// applySubmit folds a child contribution from the endsystem at origin into
// the vertex hosted here, and acknowledges it if asked to. Contributions
// for expired or canceled queries are dropped; the sender of one for a
// canceled query (register's nil) is told so, because the cancel fan-out
// only reaches the children a vertex had when it passed, and a leaf whose
// submission crossed it would otherwise retransmit for the rest of the TTL.
func (e *Engine) applySubmit(origin simnet.Endpoint, m *submitMsg) {
	st := e.register(m.QID, m.Query, m.Injector, m.Cause)
	if e.expired(st) {
		if st == nil && origin != e.node.Endpoint() {
			e.node.Ring().Network().Send(e.node.Endpoint(), origin,
				cancelMsgSize(), simnet.ClassQuery, &cancelMsg{QID: m.QID})
		}
		return
	}
	// A routed arrival records the child→vertex fan-in latency (the number
	// the latency-aware entry bias is judged on).
	if d := e.node.Sched().Now() - m.SentAt; m.SentAt > 0 && d > 0 {
		e.hFanin.ObserveDuration(d)
	}
	v := e.vertex(st, m.Vertex)
	e.promote(v)
	if m.WantAck {
		// Whatever install finds, the child table holds the contribution at
		// this version or a newer one when it returns.
		e.cAcks.Inc()
		e.node.Ring().Network().Send(e.node.Endpoint(), origin, ackMsgSize(), simnet.ClassQuery,
			&ackMsg{QID: m.QID, Child: m.Child, Version: m.C.Version})
	}
	got := v.install(m.Child, m.C, m.Cause)
	if got == stale {
		// Stale or duplicate: counted at most once.
		e.cDups.Inc()
		return
	}
	e.cMerged.Inc()
	if got == changed {
		e.replicateDelta(v, m.Child)
		e.forwardUp(v)
	}
}

// applyAck records that the primary at from holds this endsystem's own
// contribution and stops retransmitting it. An ack for an older version
// than own says nothing about own, whose timer stays armed.
func (e *Engine) applyAck(from simnet.Endpoint, m *ackMsg) {
	st := e.queries[m.QID]
	if st == nil || m.Version != st.own.Version || m.Child != e.node.ID() {
		return
	}
	st.acked, st.ackedBy = true, int32(from)
	st.resubmit.Cancel()
}

// applyRepl installs replicated vertex state at a backup. Versions protect
// against stale replication overwriting newer local state (e.g. when this
// backup has already taken over as primary).
func (e *Engine) applyRepl(m *replMsg) {
	st := e.register(m.QID, m.Query, m.Injector, m.Cause)
	// A replication in flight across a cancel (or TTL expiry) must not
	// resurrect vertex state the sweep already reclaimed.
	if e.expired(st) {
		return
	}
	v := e.vertex(st, m.Vertex)
	// Grown once, not entry by entry, and not when it holds the entries.
	v.children = slices.Grow(v.children, max(0, len(m.Children)-len(v.children)))
	grew := false
	if m.Children == nil {
		grew = v.install(m.Child, m.C, m.Cause) == changed
	}
	for _, child := range m.Children {
		grew = v.install(child.id, child.c, m.Cause) == changed || grew
	}
	if m.UpVersion > v.upVersion {
		v.upVersion = m.UpVersion
	}
	// If routing says this node is now the vertex's root (the replication
	// arrived precisely because the role moved here), act as primary
	// immediately rather than waiting for a refresh tick — but forward only
	// when the replication actually advanced local state. Propagating on
	// no-op replications would ping-pong forever between two nodes that
	// transiently both believe they are the vertex's root.
	if !e.node.IsRootOf(m.Vertex) {
		e.stepDown(v)
		return
	}
	e.promote(v)
	if grew {
		// Fresh state: push the new aggregate up. The backups already hold
		// the state we just received.
		e.forwardUp(v)
	}
}

// installed is what an install found: a stale entry (the table holds one at
// least as new), a refresh (a newer version of the same content: recorded,
// but cascaded no further up the tree), or a change of the aggregate.
type installed uint8

const (
	stale installed = iota
	refreshed
	changed
)

// install is the one writer of a vertex's child table: it records a child's
// contribution unless the table holds one at least as new, and reports
// which of the three it was. A change dirties the vertex, restarts the
// upward re-assertion ladder (the coming forward is a new transmission
// deserving its own retry protection) and makes cause, when traced, the
// causal parent of that forward.
func (v *vertexState) install(child ids.ID, c contribution, cause uint64) installed {
	cur, exists := v.children.get(child)
	if exists && c.Version <= cur.Version {
		return stale
	}
	v.children.put(child, c)
	if exists && cur.Part == c.Part && cur.Contributors == c.Contributors {
		return refreshed
	}
	v.dirty = true
	v.reassert.Rewind(&reassertSchedule)
	if cause != 0 {
		v.cause = cause
	}
	return changed
}

// stepDown makes this endsystem a backup of a vertex rooted elsewhere: only
// primaries re-assert and replicate.
func (e *Engine) stepDown(v *vertexState) {
	v.reassert.Cancel()
	v.flush.Cancel()
	v.primary = false
}

// replicateDelta is the gate on the common update path, where one child
// changed: the paper's primary replicates its state to the backups as it
// transmits to the parent. The first change after a quiet replWindow goes
// out at once, as that one entry. A change inside the window only arms the
// flush, and the changes after it find the flush armed: when the window is
// up, whatever the child table holds by then goes out once
// (replicateToBackups), in place of a message per change per level, most of
// which carried a version of an interior child that the next one
// superseded milliseconds later. A primary that dies inside the window
// takes up to a second of updates with it: the leaves behind them re-send
// when their leafset names another root (reassertMovedEntries), interior
// children on their safety pass.
func (e *Engine) replicateDelta(v *vertexState, child ids.ID) {
	if _, armed := v.flush.When(); armed {
		return
	}
	now := e.node.Sched().Now()
	t := v.timers
	if now < t.replQuiet {
		if t.flush == nil {
			t.flush = func() { e.flushFired(v) }
		}
		v.flush = e.node.Sched().After(t.replQuiet-now, t.flush)
		return
	}
	t.replQuiet = now + replWindow
	c, _ := v.children.get(child)
	e.sendToBackups(v, &replMsg{QID: v.q.qid, Vertex: v.id,
		Child: child, C: c, UpVersion: v.upVersion,
		Injector: v.q.injector, Query: v.q.query, Cause: v.cause})
}

// flushFired sends the table a change armed the flush for, unless the
// vertex has lost the primary role or its query has ended since.
func (e *Engine) flushFired(v *vertexState) {
	if e.node.Alive() && v.primary && !e.expired(v.q) {
		e.replicateToBackups(v)
	}
}

// sendToBackups sends one replication message to each of the m leafset
// members closest to the vertexId.
func (e *Engine) sendToBackups(v *vertexState, msg *replMsg) {
	size := replMsgSize(msg.entries())
	backups := e.backupSet(v.id)
	e.cRepls.Add(uint64(len(backups)))
	e.cReplRows.Add(uint64(len(backups) * msg.entries()))
	for _, b := range backups {
		e.node.Ring().Network().Send(e.node.Endpoint(), b.EP, size, simnet.ClassQuery, msg)
	}
}

// forwardUp sends the vertex's current aggregate to its parent vertex (or
// the injector, at the root).
func (e *Engine) forwardUp(v *vertexState) {
	qid := v.q.qid
	part, contributors := v.aggregate()
	v.dirty = false
	v.upVersion++
	if v.id == qid {
		// Root: deliver the incremental result to the injector.
		e.node.Ring().Network().Send(e.node.Endpoint(), v.q.injector,
			resultMsgSize(), simnet.ClassQuery,
			&resultMsg{QID: qid, Part: part, Contributors: contributors, Cause: v.cause})
		return
	}
	parent := V(qid, v.id, pastry.B)
	msg := newSubmit(submitMsg{QID: qid, Vertex: parent, Child: v.id,
		C:        contribution{Version: v.upVersion, Part: part, Contributors: contributors},
		Injector: v.q.injector, Query: v.q.query, Cause: v.cause})
	if e.node.IsRootOf(parent) {
		// Local delivery cannot be lost; the ladder applies to the wire.
		e.applyAndRecycle(e.node.Endpoint(), msg)
		return
	}
	msg.SentAt = e.node.Sched().Now()
	e.node.Route(parent, msg, submitMsgSize(), simnet.ClassQuery)
	e.armReassert(v)
}

// backupSet picks the m leafset members closest to the vertexId. The
// result lives in the engine's scratch buffer: callers walk it at once
// and keep nothing.
func (e *Engine) backupSet(vertex ids.ID) []pastry.NodeRef {
	e.backups = e.node.AppendClosest(e.backups[:0], vertex, e.cfg.Backups, false)
	return e.backups
}

// armRefresh starts the vertex's refresh chain. Its ticks fall every
// RefreshPeriod from the instant the vertex was created, the chain's phase:
// the n-th at born+n·RefreshPeriod. A tick re-propagates state that changed
// without reaching the parent (a lost message), and every third tick
// re-propagates unconditionally as a safety net against losses the dirty
// flag cannot see: forwardUp clears dirty optimistically, so a dropped
// vertex-to-parent message — or a parent replica group that lost the
// aggregate wholesale — is only ever recovered by this pass. Only a
// primary acts on either, and only the first tick past the query's expiry
// reclaims the vertex, so the chain schedules an event only at a tick that
// can act: a backup's chain sleeps until its expiry tick, an idle
// primary's until its next safety pass, and promote pulls a backup's
// chain in to its next tick. A new vertex starts asleep as a backup's.
func (e *Engine) armRefresh(v *vertexState) {
	if e.cfg.RefreshPeriod <= 0 {
		return
	}
	sched := e.node.Sched()
	t := v.timers
	t.born = sched.Now()
	if t.refresh == nil {
		t.refresh = func() { e.refreshFired(v) }
	}
	v.refresh = sched.At(e.refreshWake(v, t.born, 0, sleepUntilExpiry), t.refresh)
	if refreshArmed != nil {
		refreshArmed(e, v, t.born)
	}
}

// refreshFired runs the tick the chain's event stands for, the n-th of
// its phase, and re-arms the chain for the tick it sleeps until.
func (e *Engine) refreshFired(v *vertexState) {
	sched := e.node.Sched()
	born := v.timers.born
	n := int64((sched.Now() - born) / e.cfg.RefreshPeriod)
	if next := e.refreshTick(v, n); next > 0 {
		v.refresh = sched.At(e.refreshWake(v, born, n, next), v.timers.refresh)
	}
}

// refreshWake returns the instant of the tick that a chain of phase born,
// having run tick n, sleeps until, given refreshTick's answer next. It is
// never past the expiry tick, the first n with
// born+n·RefreshPeriod-firstSeen > QueryTTL, unless that has passed.
// Without a TTL a backup's chain wakes for every safety pass.
func (e *Engine) refreshWake(v *vertexState, born time.Duration, n, next int64) time.Duration {
	period := e.cfg.RefreshPeriod
	if e.cfg.QueryTTL > 0 {
		expiry := int64((v.q.firstSeen+e.cfg.QueryTTL-born)/period) + 1
		next = min(next, max(expiry, n+1))
	} else if next == sleepUntilExpiry {
		next = n + 3 - n%3
	}
	return born + time.Duration(next)*period
}

// sleepUntilExpiry is refreshTick's answer for a chain that no tick before
// its expiry tick can make act.
const sleepUntilExpiry = int64(1<<63 - 1)

// refreshTick runs the vertex's n-th refresh tick and returns the tick its
// chain sleeps until (before expiry is taken into account), or 0 when the
// chain ends.
func (e *Engine) refreshTick(v *vertexState, n int64) int64 {
	if refreshTicked != nil {
		refreshTicked(e, v)
	}
	if !e.node.Alive() {
		// A down endsystem's ticks do nothing, and coming back
		// (core.Node.GoUp) resets the engine, which drops the vertex.
		return 0
	}
	if e.expired(v.q) {
		// The query timed out: reclaim the vertex. (A canceled query's
		// vertices left with the cancel, their chains with them.)
		if i, ok := v.q.findVertex(v.id); ok {
			v.q.vertices = slices.Delete(v.q.vertices, i, i+1)
		}
		e.releaseVertex(v)
		return 0
	}
	if e.cfg.DisableRepair {
		return sleepUntilExpiry
	}
	if e.node.IsRootOf(v.id) && len(v.children) > 0 {
		e.promote(v)
		if v.dirty || n%3 == 0 {
			// Re-assert the aggregate upward; replication to backups is
			// handled by the update and membership-change paths.
			if v.dirty {
				e.cRefresh.Inc()
			}
			e.forwardUp(v)
		}
	}
	switch {
	case !v.primary:
		// A backup: a root vertex with children is already primary (the
		// takeover paths make it so), so none of its ticks can act.
		return sleepUntilExpiry
	case v.dirty:
		return n + 1
	default:
		return n + 3 - n%3
	}
}

// promote is the one place a backup becomes the vertex's primary. A vertex
// that already holds children changes hands from another primary (§3.4's
// takeover, whatever path brought the role here): it is counted, traced,
// and starts the ladder from its first rung, since whatever this node
// armed in an earlier primary stint protected a forward of that stint. A
// backup's refresh chain sleeps until expiry, so it is pulled in to its
// next tick: the first instant on its phase after now, read off the
// sleeping event's own instant, which lies on the phase. A primary's chain
// is left as it is: it ticks every period while the vertex is dirty, and
// the paths that call this and dirty a primary forward at once, which
// cleans it.
func (e *Engine) promote(v *vertexState) {
	if v.primary {
		return
	}
	v.primary = true
	if len(v.children) > 0 {
		e.cTakeovers.Inc()
		e.o.EmitSpan(v.cause, obs.Event{Kind: obs.KindTakeover, Query: e.o.QueryTag(v.q.qid),
			EP: int(e.node.Endpoint())})
		v.reassert.Cancel()
	}
	at, ok := v.refresh.When()
	if !ok {
		return
	}
	period := e.cfg.RefreshPeriod
	now := e.node.Sched().Now()
	if next := at - (at-now-1)/period*period; next < at {
		v.refresh.Reschedule(next)
	}
}

// Test hooks, nil outside tests: the differential refresh oracle shadows
// every chain armRefresh starts and is told of every tick a chain runs.
var (
	refreshArmed  func(e *Engine, v *vertexState, born time.Duration)
	refreshTicked func(e *Engine, v *vertexState)
)

// HandleLeafsetChanged reacts to churn: any vertex whose primary role just
// arrived at this node (the previous primary died or the namespace
// shifted) re-propagates from the replicated state, and any acknowledged
// own contribution whose entry vertex now has another root is sent again.
func (e *Engine) HandleLeafsetChanged() {
	if !e.node.Alive() || e.cfg.DisableRepair {
		return
	}
	for _, v := range e.sortedVertices() {
		if len(v.children) == 0 {
			continue
		}
		isRoot := e.node.IsRootOf(v.id)
		switch {
		case !v.primary && isRoot:
			// Take over: the previous primary died or the namespace
			// shifted toward us. The state goes to this vertex's backups
			// and the aggregate to its parent.
			e.promote(v)
			e.replicateToBackups(v)
			e.forwardUp(v)
		case !isRoot:
			// Membership moved around this vertex while someone else is
			// (or should become) its primary. Push our copy of the state
			// toward the vertexId's current root: if the old primary died
			// and the new root is not one of its backups, this is the
			// only path by which the state reaches it.
			e.stepDown(v)
			e.pushStateToRoot(v)
		default: // primary && isRoot
			// Membership changed around us: refresh the backups.
			e.replicateToBackups(v)
		}
	}
	// After the takeovers, so that a vertex this endsystem has just become
	// the root of is taken over from its replicated state before this
	// endsystem's own contribution is applied to it.
	e.reassertMovedEntries()
}

// reassertMovedEntries is the rule that an ack stands only for the primary
// that gave it. The acker held the contribution, but it may have been the
// primary only on this endsystem's side of a partition, or have handed the
// vertex on before its replication landed; the endsystem that is the
// entry vertex's root now may never have seen the contribution. So when
// this endsystem's leafset names a root for the entry vertex other than
// the acker, the contribution goes back to being unacknowledged and is
// sent again, from the first rung. Entry vertices outside the leafset's
// span (the coordinate-biased far entries) have no root this endsystem can
// name, and there the ack stands.
func (e *Engine) reassertMovedEntries() {
	var moved []*queryState
	for _, st := range e.queries {
		if st.own.Version == 0 || !st.acked || e.expired(st) {
			continue
		}
		if root, ok := e.node.LeafsetRoot(st.entry); ok && root.EP != simnet.Endpoint(st.ackedBy) {
			moved = append(moved, st)
		}
	}
	slices.SortFunc(moved, func(a, b *queryState) int { return a.qid.Cmp(b.qid) })
	for _, st := range moved {
		st.acked = false
		e.cResubmit.Inc()
		span := e.o.EmitSpan(st.cause, obs.Event{Kind: obs.KindAggResubmit, Query: e.o.QueryTag(st.qid),
			EP: int(e.node.Endpoint())})
		e.sendOwn(st, span)
	}
}

// replicateToBackups sends the vertex's full children table to its
// backups, which takes the place of a pending flush and opens a new
// replication window.
func (e *Engine) replicateToBackups(v *vertexState) {
	v.flush.Cancel()
	v.timers.replQuiet = e.node.Sched().Now() + replWindow
	e.sendToBackups(v, e.tableMsg(v))
}

// pushStateToRoot routes the vertex's full state to whichever endsystem is
// currently numerically closest to the vertexId.
func (e *Engine) pushStateToRoot(v *vertexState) {
	msg := e.tableMsg(v)
	e.cRepls.Inc()
	e.cReplRows.Add(uint64(msg.entries()))
	e.node.Route(v.id, msg, replMsgSize(msg.entries()), simnet.ClassQuery)
}

// tableMsg is the replication message that carries the vertex's whole
// child table.
func (e *Engine) tableMsg(v *vertexState) *replMsg {
	return &replMsg{QID: v.q.qid, Vertex: v.id,
		Children: v.children.clone(), UpVersion: v.upVersion,
		Injector: v.q.injector, Query: v.q.query, Cause: v.cause}
}

// sortedVertices returns the vertex states in (queryId, vertexId) order,
// keeping the simulation deterministic where map iteration would otherwise
// change message order between runs. It is a snapshot: a takeover can
// create vertices synchronously.
func (e *Engine) sortedVertices() []*vertexState {
	var hosting []*queryState
	for _, st := range e.queries {
		if len(st.vertices) > 0 {
			hosting = append(hosting, st)
		}
	}
	slices.SortFunc(hosting, func(a, b *queryState) int { return a.qid.Cmp(b.qid) })
	var out []*vertexState
	for _, st := range hosting {
		out = append(out, st.vertices...)
	}
	return out
}

// NumVertices reports how many vertex states this endsystem holds.
func (e *Engine) NumVertices() int { return e.hosted }

// OrphanVertices reports how many vertex states this endsystem holds for
// queries that are expired or canceled — state the refresh path should
// have reclaimed. The chaos invariant checker asserts this reaches zero
// after every query's TTL plus a few refresh periods.
func (e *Engine) OrphanVertices() int {
	n := 0
	for _, st := range e.queries {
		if e.expired(st) {
			n += len(st.vertices)
		}
	}
	return n
}

// DebugFull summarizes this engine's vertex states for one query, with
// full vertex ids (test instrumentation).
func (e *Engine) DebugFull(qid ids.ID) string {
	out := ""
	if st := e.queries[qid]; st != nil {
		for _, v := range st.vertices {
			_, contribs := v.aggregate()
			out += fmt.Sprintf("[v=%s eq-qid=%v children=%d contribs=%d primary=%v] ",
				v.id, v.id == qid, len(v.children), contribs, v.primary)
		}
	}
	return out
}
