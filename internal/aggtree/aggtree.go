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
// knows of the query, its own contribution and entry vertexId — the only
// part that survives a restart — the leaf retransmission timer and the ack
// that stops it, and the vertices it hosts for the query's tree.
// Everything the protocol does for a query starts from that record, and
// vertices point back at it.
package aggtree

import (
	"fmt"
	"slices"
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

	// Coords, when non-nil, biases entry-vertex selection by latency:
	// instead of always entering the tree at the deepest V-chain vertex it
	// is not the root of, an endsystem enters at the chain vertex whose
	// current primary has the lowest predicted RTT. The candidate set is
	// exactly the remaining V-chain (id-valid by construction, so tree
	// convergence and the exactly-once child tables are untouched); ties
	// break toward the deepest vertex, which is the id-only default. Nil
	// preserves the baseline byte-for-byte.
	Coords *coords.Space
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
	// refresh only re-propagates dirty vertices (plus a rare safety pass)
	// so an idle query costs almost nothing.
	dirty bool
	// dropped is set when the vertex leaves its record (cancel, expiry,
	// restart): a timer of its that still fires does nothing.
	dropped bool
	// reassertN belongs with reassert below; as an int32 here it shares
	// the flags' word.
	reassertN int32
	// cause is the span of the last contribution that changed this
	// vertex's aggregate — the causal parent of the next upward forward.
	cause uint64

	// Upward re-assertion ladder (zero unless Config.Reassert): the timer
	// of the next rung, and in reassertN above how many rungs the current
	// content has used (see hedge.go).
	reassert simnet.Timer

	// Coalesced replication (see replicateDelta): the instant up to which
	// a changed child waits to go to the backups in one table, and the
	// timer that sends that table once a change is waiting.
	replQuiet time.Duration
	flush     simnet.Timer
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

const (
	// The leaf retransmission schedule: an unacknowledged contribution is
	// re-sent 20s, 1m, 3m and 9m after the one before, and every 9m from
	// then on, until it is acknowledged or the query ends.
	resubmitBase = 20 * time.Second
	resubmitMax  = 9 * time.Minute

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
// per query the endsystem has heard of, until Reset.
type queryState struct {
	qid ids.ID

	// The registry half is volatile. known is false between a restart and
	// the next time the query is heard of, which counts as expired; a
	// cancel that arrives for an unknown query makes it known with nothing
	// but firstSeen, a tombstone that drops late submissions.
	known    bool
	canceled bool
	// asserted: own was submitted in this incarnation. Reset clears it, so
	// the rejoin re-execution re-asserts an unchanged result (see Submit).
	asserted bool
	// ackedBy belongs with resubmit and acked below; as an int32 here it
	// shares the flags' word, which keeps the record in its size class.
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

	// resubmit is the live leaf retransmission timer for own, armed while
	// own is unacknowledged. acked is the version of own that the entry
	// vertex's primary has said it holds (own is acknowledged when the two
	// are equal) and ackedBy, above, the endpoint that said so: an ack
	// stands only for that primary. All three are volatile: a restart drops
	// them, and the rejoin path's fresh Submit starts over.
	resubmit simnet.Timer
	acked    uint64

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
	// queries is the engine's one table: a record per query, keyed by
	// queryId.
	queries map[ids.ID]*queryState

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
	o := host.PastryNode().Ring().Obs()
	return &Engine{
		cfg:     cfg,
		host:    host,
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
// registry half unknown.
func (e *Engine) Reset() {
	for qid, st := range e.queries {
		for _, v := range st.vertices {
			e.drop(v)
		}
		st.resubmit.Cancel()
		if st.own.Version == 0 {
			delete(e.queries, qid)
			continue
		}
		*st = queryState{qid: qid, own: st.own, entry: st.entry}
	}
}

// drop retires a vertex that has left (or is leaving) its record: its
// timers are canceled, and one that fires all the same finds the flag.
func (e *Engine) drop(v *vertexState) {
	v.refresh.Cancel()
	e.clearHedge(v)
	v.cancelFlush()
	v.dropped = true
}

// RegisterQuery tells the engine about an active query (from the
// dissemination layer). The injector endpoint is where root results go;
// cause is the span under which the query arrived here (0 without
// tracing).
func (e *Engine) RegisterQuery(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) {
	e.register(qid, q, injector, cause)
}

// register returns the query's record, creating it if this is the first
// the endsystem keeps about the query and filling in the registry half if
// this is the first it hears of the query in this incarnation.
func (e *Engine) register(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) *queryState {
	st := e.queries[qid]
	if st == nil {
		st = &queryState{qid: qid}
		e.queries[qid] = st
	}
	if !st.known {
		st.known, st.query, st.injector, st.cause = true, q, injector, cause
		st.firstSeen = e.host.PastryNode().Sched().Now()
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
	node := e.host.PastryNode()
	if !node.IsRootOf(qid) {
		// Hand the broadcast to the root vertex's primary, which fans it
		// down the whole tree.
		node.Route(qid, m, cancelMsgSize(), simnet.ClassQuery)
	}
}

// applyCancel processes a cancellation at this endsystem: mark the query
// canceled (tombstoning it if unknown, so late submissions are dropped
// rather than resurrecting state), stop the local retransmission timer,
// drop every hosted vertex, and — for every dropped vertex this endsystem
// was the primary of — fan the cancel to the vertex's children and
// backups. Fan-out keys off the vertex's primary flag, not off which
// cancel arrived first: a node can be backup for one vertex and primary
// for another in the same tree, and a backup-targeted cancel reaching it
// first must still propagate the primary vertex's subtree. The fan-out
// passes m itself on: a cancel says only which query, and receivers only
// read it, so one message serves every child and backup down the tree.
func (e *Engine) applyCancel(m *cancelMsg) {
	st := e.register(m.QID, nil, 0, 0)
	st.canceled = true
	st.resubmit.Cancel()
	st.resubmit = simnet.Timer{}
	node := e.host.PastryNode()
	// Vertices leave the record in vertexId order, each before the cancel
	// fans out from it: Route below can deliver to self synchronously,
	// re-entering applyCancel, which then carries on with what is left.
	for len(st.vertices) > 0 {
		v := st.vertices[0]
		st.vertices = st.vertices[1:]
		e.drop(v)
		if !v.primary {
			continue
		}
		for _, child := range v.children { // in id order
			node.Route(child.id, m, cancelMsgSize(), simnet.ClassQuery)
		}
		// Backups mirror this vertex's state; they drop it on receipt and
		// only propagate further for vertices they are primary of.
		for _, b := range e.backupSet(v.id) {
			node.Ring().Network().Send(node.Endpoint(), b.EP,
				cancelMsgSize(), simnet.ClassQuery, m)
		}
	}
	st.vertices = nil // let go of the array the dropped vertices are still in
}

// expired reports whether a query is unknown, canceled or past its TTL.
func (e *Engine) expired(st *queryState) bool {
	if st == nil || !st.known || st.canceled {
		return true
	}
	if e.cfg.QueryTTL <= 0 {
		return false
	}
	now := e.host.PastryNode().Sched().Now()
	return now-st.firstSeen > e.cfg.QueryTTL
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
// always reaches the vertex's current primary.
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
// aggregation traffic to the query's trace.
func (m *submitMsg) TraceQuery() string { return m.QID.Short() }
func (m *replMsg) TraceQuery() string   { return m.QID.Short() }
func (m *resultMsg) TraceQuery() string { return m.QID.Short() }
func (m *cancelMsg) TraceQuery() string { return m.QID.Short() }
func (m *ackMsg) TraceQuery() string    { return m.QID.Short() }

// TraceSpan implements pastry.TracedSpan for verbose hop-chain tracing.
func (m *submitMsg) TraceSpan() uint64 { return m.Cause }
func (m *replMsg) TraceSpan() uint64   { return m.Cause }
func (m *resultMsg) TraceSpan() uint64 { return m.Cause }

// --------------------------------------------------------------- protocol

// Submit contributes this endsystem's local result for a query. It may be
// called again with an updated partial (e.g. after a local data change);
// the new version replaces the old exactly once, and a partial equal to
// the one already submitted in this incarnation is not sent again. After a
// restart the first Submit goes out whatever it carries: the entry vertex
// (or its whole replica group) may have died while this endsystem was
// down, and the versioned replacement keeps the re-assertion exactly-once.
// cause is the span of the execution that produced the partial (0 when
// tracing is off).
func (e *Engine) Submit(qid ids.ID, part agg.Partial, q *relq.Query, injector simnet.Endpoint, cause uint64) {
	st := e.register(qid, q, injector, cause)
	if st.asserted && st.own.Part == part {
		return
	}
	if st.own.Version == 0 {
		st.entry = e.chooseEntry(qid)
	}
	st.own = contribution{Version: st.own.Version + 1, Part: part, Contributors: 1}
	st.asserted = true
	e.cSubmits.Inc()
	span := e.o.EmitSpan(cause, obs.Event{Kind: obs.KindSubmit, Query: e.o.QueryTag(qid),
		EP: int(e.host.PastryNode().Endpoint()), N: int64(st.own.Version)})
	e.sendSubmission(st, span)
	e.armResubmit(st, 0, span)
}

// armResubmit schedules the next backed-off retransmission of this
// endsystem's own contribution, unless it is already acknowledged. The
// single routed submitMsg is the only copy of the contribution until a
// vertex primary replicates it; a drop during a burst or partition would
// otherwise lose those rows for the whole life of the query — vertex
// repair cannot resurrect state that never arrived anywhere. So the leaf
// sends until the primary's ack (applyAck) cancels the timer, or the query
// is canceled or expires. Re-sending the same version is idempotent at
// the vertex (applySubmit counts it as a duplicate and acks it again), so
// the exactly-once invariant is untouched. A newer Submit restarts the
// schedule for its own version by cancelling the timer armed before it.
func (e *Engine) armResubmit(st *queryState, attempt int, span uint64) {
	st.resubmit.Cancel()
	st.resubmit = simnet.Timer{}
	if e.cfg.DisableRepair || st.acked == st.own.Version {
		return
	}
	delay := resubmitBase
	for i := 0; i < attempt && delay < resubmitMax; i++ {
		delay *= 3
	}
	node := e.host.PastryNode()
	st.resubmit = node.Sched().After(delay, func() {
		st.resubmit = simnet.Timer{}
		if !node.Alive() || e.expired(st) {
			return
		}
		e.cResubmit.Inc()
		next := e.o.EmitSpan(span, obs.Event{Kind: obs.KindAggResubmit, Query: e.o.QueryTag(st.qid),
			EP: int(node.Endpoint()), N: int64(attempt + 1)})
		e.sendSubmission(st, next)
		e.armResubmit(st, attempt+1, next)
	})
}

// chooseEntry picks where this endsystem enters qid's tree: the first
// vertex on the V-chain from its own endsystemId that it is not the root
// of (or, with coordinates, the nearest of the chain from there up).
func (e *Engine) chooseEntry(qid ids.ID) ids.ID {
	node := e.host.PastryNode()
	v := node.ID()
	digits := ids.DigitsPerID(pastry.B)
	depth := 0
	for i := 0; i <= digits && v != qid; i++ {
		if !node.IsRootOf(v) {
			break
		}
		v = V(qid, v, pastry.B)
		depth++
	}
	if e.cfg.Coords != nil {
		v = e.nearestEntryVertex(qid, v)
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
	node := e.host.PastryNode()
	msg := &submitMsg{QID: st.qid, Vertex: st.entry, Child: node.ID(), C: st.own,
		Injector: st.injector, Query: st.query, Cause: cause}
	if node.IsRootOf(st.entry) {
		// This endsystem hosts the vertex itself (it is the root of the
		// whole chain up to the queryId): nothing can be lost, and the
		// contribution is acknowledged in place.
		e.applySubmit(node.Endpoint(), msg)
		st.acked, st.ackedBy = st.own.Version, int32(node.Endpoint())
		return
	}
	msg.WantAck = true
	msg.SentAt = node.Sched().Now()
	node.Route(st.entry, msg, submitMsgSize(), simnet.ClassQuery)
}

// nearestEntryVertex walks the V-chain from the id-only entry vertex up
// to the queryId and returns the chain vertex whose current primary has
// the lowest predicted RTT from this endsystem. Every chain vertex is an
// id-valid entry (its subtree contains this endsystem's leaf position);
// entering higher merely skips levels, which the versioned child tables
// already tolerate. The comparison is strict and the chain is walked
// deepest-first, so the id-only default wins ties and the choice is
// byte-deterministic per seed — primaries come from the ring's
// ground-truth index.
func (e *Engine) nearestEntryVertex(qid, entry ids.ID) ids.ID {
	node := e.host.PastryNode()
	self := node.Endpoint()
	best := entry
	var bestRTT time.Duration
	have := false
	v := entry
	digits := ids.DigitsPerID(pastry.B)
	for i := 0; i <= digits; i++ {
		if root, ok := node.Ring().Root(v); ok {
			rtt := e.cfg.Coords.PredictRTT(self, root.EP)
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
		e.applySubmit(from, m)
	case *ackMsg:
		e.applyAck(from, m)
	case *replMsg:
		e.applyRepl(m)
	case *resultMsg:
		span := e.o.EmitSpan(m.Cause, obs.Event{Kind: obs.KindPartial, Query: e.o.QueryTag(m.QID),
			EP: int(e.host.PastryNode().Endpoint()),
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
	v := &vertexState{q: st, id: id}
	st.vertices = slices.Insert(st.vertices, i, v)
	e.armRefresh(v)
	return v
}

// applySubmit folds a child contribution from the endsystem at origin into
// the vertex hosted here, and acknowledges it if asked to. Contributions
// for expired or canceled queries are dropped; the sender of one for a
// canceled query is told so, because the cancel fan-out only reaches the
// children a vertex had when it passed, and a leaf whose submission
// crossed it would otherwise retransmit for the rest of the TTL.
func (e *Engine) applySubmit(origin simnet.Endpoint, m *submitMsg) {
	st := e.register(m.QID, m.Query, m.Injector, m.Cause)
	if e.expired(st) {
		if node := e.host.PastryNode(); st.canceled && origin != node.Endpoint() {
			node.Ring().Network().Send(node.Endpoint(), origin,
				cancelMsgSize(), simnet.ClassQuery, &cancelMsg{QID: m.QID})
		}
		return
	}
	if m.SentAt > 0 {
		// Routed arrival: record the child→vertex fan-in latency (the
		// number the latency-aware entry bias is judged on).
		if d := e.host.PastryNode().Sched().Now() - m.SentAt; d > 0 {
			e.hFanin.ObserveDuration(d)
		}
	}
	v := e.vertex(st, m.Vertex)
	v.primary = true
	cur, exists := v.children.get(m.Child)
	if m.WantAck {
		// Whichever branch below is taken, the child table holds the
		// contribution at this version or a newer one when it returns.
		e.cAcks.Inc()
		node := e.host.PastryNode()
		node.Ring().Network().Send(node.Endpoint(), origin, ackMsgSize(), simnet.ClassQuery,
			&ackMsg{QID: m.QID, Child: m.Child, Version: m.C.Version})
	}
	if exists && cur.Version >= m.C.Version {
		// Stale or duplicate: counted at most once.
		e.cDups.Inc()
		return
	}
	v.children.put(m.Child, m.C)
	e.cMerged.Inc()
	// A version advance with identical content is a refresh re-assertion:
	// record it but do not cascade it any further up the tree.
	if exists && cur.Part == m.C.Part && cur.Contributors == m.C.Contributors {
		return
	}
	v.dirty = true
	// Fresh content restarts the upward re-assertion ladder: the coming
	// forward is a new transmission deserving its own retry protection.
	v.reassertN = 0
	if m.Cause != 0 {
		v.cause = m.Cause
	}
	e.replicateDelta(v, m.Child)
	e.forwardUp(v)
}

// applyAck records that the primary at from holds this endsystem's own
// contribution and stops retransmitting it. An ack for an older version
// than own says nothing about own, whose timer stays armed.
func (e *Engine) applyAck(from simnet.Endpoint, m *ackMsg) {
	st := e.queries[m.QID]
	if st == nil || m.Version != st.own.Version || m.Child != e.host.PastryNode().ID() {
		return
	}
	st.acked, st.ackedBy = m.Version, int32(from)
	st.resubmit.Cancel()
	st.resubmit = simnet.Timer{}
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
	changed := false
	if m.Children == nil {
		changed = v.install(m.Child, m.C)
	} else {
		for _, child := range m.Children {
			if v.install(child.id, child.c) {
				changed = true
			}
		}
	}
	if changed && m.Cause != 0 {
		v.cause = m.Cause
	}
	if m.UpVersion > v.upVersion {
		v.upVersion = m.UpVersion
	}
	// If routing says this node is now the vertex's root (the replication
	// arrived precisely because the role moved here), act as primary
	// immediately rather than waiting for a refresh tick — but only when
	// the replication actually advanced local state. Propagating on
	// no-op replications would ping-pong forever between two nodes that
	// transiently both believe they are the vertex's root.
	if e.host.PastryNode().IsRootOf(m.Vertex) {
		if !v.primary {
			e.cTakeovers.Inc()
			e.o.EmitSpan(v.cause, obs.Event{Kind: obs.KindTakeover, Query: e.o.QueryTag(m.QID),
				EP: int(e.host.PastryNode().Endpoint())})
			// A takeover starts the ladder from its first rung: whatever
			// this node armed in an earlier primary stint protected a
			// forward of that stint.
			e.clearHedge(v)
		}
		v.primary = true
		if changed {
			// Taking over with fresh state: push the new aggregate up. The
			// backups already hold the state we just received.
			e.forwardUp(v)
		}
	} else {
		// Not this node's vertex (anymore): only primaries re-assert and
		// replicate.
		e.clearHedge(v)
		v.cancelFlush()
		v.primary = false
	}
}

// install records a replicated child entry unless the local one is at
// least as new, and reports whether the vertex's aggregate changed (a
// version advance with identical content is a refresh, not a change).
func (v *vertexState) install(child ids.ID, c contribution) bool {
	cur, exists := v.children.get(child)
	if exists && c.Version <= cur.Version {
		return false
	}
	v.children.put(child, c)
	if exists && cur.Part == c.Part && cur.Contributors == c.Contributors {
		return false
	}
	v.dirty = true
	v.reassertN = 0
	return true
}

// propagate replicates the vertex's full state to its backups and forwards
// the aggregate to the parent (takeovers and membership changes).
func (e *Engine) propagate(v *vertexState) {
	e.replicateState(v)
	e.forwardUp(v)
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
	if v.flush != (simnet.Timer{}) {
		return
	}
	node := e.host.PastryNode()
	now := node.Sched().Now()
	if now < v.replQuiet {
		v.flush = node.Sched().After(v.replQuiet-now, func() {
			v.flush = simnet.Timer{}
			if node.Alive() && v.primary && !e.expired(v.q) {
				e.replicateToBackups(v)
			}
		})
		return
	}
	v.replQuiet = now + replWindow
	c, _ := v.children.get(child)
	e.sendToBackups(v, &replMsg{QID: v.q.qid, Vertex: v.id,
		Child: child, C: c, UpVersion: v.upVersion,
		Injector: v.q.injector, Query: v.q.query, Cause: v.cause})
}

// cancelFlush drops a pending table flush: the vertex is leaving its
// record or the primary role, or its table has just gone out in full.
func (v *vertexState) cancelFlush() {
	v.flush.Cancel()
	v.flush = simnet.Timer{}
}

// sendToBackups sends one replication message to each of the m leafset
// members closest to the vertexId.
func (e *Engine) sendToBackups(v *vertexState, msg *replMsg) {
	node := e.host.PastryNode()
	size := replMsgSize(msg.entries())
	backups := e.backupSet(v.id)
	e.cRepls.Add(uint64(len(backups)))
	e.cReplRows.Add(uint64(len(backups) * msg.entries()))
	for _, b := range backups {
		node.Ring().Network().Send(node.Endpoint(), b.EP, size, simnet.ClassQuery, msg)
	}
}

// forwardUp sends the vertex's current aggregate to its parent vertex (or
// the injector, at the root).
func (e *Engine) forwardUp(v *vertexState) {
	node := e.host.PastryNode()
	qid := v.q.qid
	part, contributors := v.aggregate()
	v.dirty = false
	v.upVersion++
	if v.id == qid {
		// Root: deliver the incremental result to the injector.
		node.Ring().Network().Send(node.Endpoint(), v.q.injector,
			resultMsgSize(), simnet.ClassQuery,
			&resultMsg{QID: qid, Part: part, Contributors: contributors, Cause: v.cause})
		return
	}
	parent := V(qid, v.id, pastry.B)
	msg := &submitMsg{QID: qid, Vertex: parent, Child: v.id,
		C:        contribution{Version: v.upVersion, Part: part, Contributors: contributors},
		Injector: v.q.injector, Query: v.q.query, Cause: v.cause}
	if node.IsRootOf(parent) {
		// Local delivery cannot be lost; the ladder applies to the wire.
		e.applySubmit(node.Endpoint(), msg)
		return
	}
	msg.SentAt = node.Sched().Now()
	node.Route(parent, msg, submitMsgSize(), simnet.ClassQuery)
	e.armReassert(v)
}

// backupSet picks the m leafset members closest to the vertexId. The
// result lives in the engine's scratch buffer: callers walk it at once
// and keep nothing.
func (e *Engine) backupSet(vertex ids.ID) []pastry.NodeRef {
	cands := append(e.backups[:0], e.host.PastryNode().LeafsetView()...)
	e.backups = cands
	slices.SortFunc(cands, func(a, b pastry.NodeRef) int {
		return vertex.AbsDistance(a.ID).Cmp(vertex.AbsDistance(b.ID))
	})
	if len(cands) > e.cfg.Backups {
		cands = cands[:e.cfg.Backups]
	}
	return cands
}

// armRefresh schedules periodic re-propagation for a vertex. Ordinarily a
// tick is a no-op: it re-propagates only state that changed without
// reaching the parent (a lost message). Every third tick re-propagates
// unconditionally as a safety net against losses the dirty flag cannot
// see: forwardUp clears dirty optimistically, so a dropped vertex-to-
// parent message — or a parent replica group that lost the aggregate
// wholesale — is only ever recovered by this pass.
func (e *Engine) armRefresh(v *vertexState) {
	if e.cfg.RefreshPeriod <= 0 {
		return
	}
	node := e.host.PastryNode()
	tick := 0
	v.refresh = node.Sched().Every(e.cfg.RefreshPeriod, func() {
		if !node.Alive() {
			return
		}
		if v.dropped {
			v.refresh.Cancel()
			return
		}
		tick++
		if e.expired(v.q) {
			// The query timed out (or was canceled): reclaim the vertex.
			if i, ok := v.q.findVertex(v.id); ok {
				v.q.vertices = slices.Delete(v.q.vertices, i, i+1)
			}
			e.drop(v)
			return
		}
		if e.cfg.DisableRepair {
			return
		}
		if !node.IsRootOf(v.id) || len(v.children) == 0 {
			return
		}
		v.primary = true
		if v.dirty || tick%3 == 0 {
			// Re-assert the aggregate upward; replication to backups is
			// handled by the update and membership-change paths.
			if v.dirty {
				e.cRefresh.Inc()
			}
			e.forwardUp(v)
		}
	})
}

// HandleLeafsetChanged reacts to churn: any vertex whose primary role just
// arrived at this node (the previous primary died or the namespace
// shifted) re-propagates from the replicated state, and any acknowledged
// own contribution whose entry vertex now has another root is sent again.
func (e *Engine) HandleLeafsetChanged() {
	node := e.host.PastryNode()
	if !node.Alive() || e.cfg.DisableRepair {
		return
	}
	for _, v := range e.sortedVertices() {
		if len(v.children) == 0 {
			continue
		}
		isRoot := node.IsRootOf(v.id)
		switch {
		case !v.primary && isRoot:
			// Take over: the previous primary died or the namespace
			// shifted toward us. The ladder starts from its first rung.
			e.clearHedge(v)
			v.primary = true
			e.cTakeovers.Inc()
			e.o.EmitSpan(v.cause, obs.Event{Kind: obs.KindTakeover, Query: e.o.QueryTag(v.q.qid),
				EP: int(node.Endpoint())})
			e.propagate(v)
		case !isRoot:
			// Membership moved around this vertex while someone else is
			// (or should become) its primary. Push our copy of the state
			// toward the vertexId's current root: if the old primary died
			// and the new root is not one of its backups, this is the
			// only path by which the state reaches it.
			e.clearHedge(v)
			v.cancelFlush()
			v.primary = false
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
	node := e.host.PastryNode()
	var moved []*queryState
	for _, st := range e.queries {
		if st.own.Version == 0 || st.acked != st.own.Version || e.expired(st) {
			continue
		}
		if root, ok := node.LeafsetRoot(st.entry); ok && root.EP != simnet.Endpoint(st.ackedBy) {
			moved = append(moved, st)
		}
	}
	slices.SortFunc(moved, func(a, b *queryState) int { return a.qid.Cmp(b.qid) })
	for _, st := range moved {
		st.acked = 0
		e.cResubmit.Inc()
		span := e.o.EmitSpan(st.cause, obs.Event{Kind: obs.KindAggResubmit, Query: e.o.QueryTag(st.qid),
			EP: int(node.Endpoint())})
		e.sendSubmission(st, span)
		e.armResubmit(st, 0, span)
	}
}

// replicateState pushes the vertex's full state to the backups and, if
// this node is not the vertex's root, toward the current root.
func (e *Engine) replicateState(v *vertexState) {
	e.replicateToBackups(v)
	if !e.host.PastryNode().IsRootOf(v.id) {
		e.pushStateToRoot(v)
	}
}

// replicateToBackups sends the vertex's full children table to its
// backups, which takes the place of a pending flush and opens a new
// replication window.
func (e *Engine) replicateToBackups(v *vertexState) {
	v.cancelFlush()
	v.replQuiet = e.host.PastryNode().Sched().Now() + replWindow
	e.sendToBackups(v, e.tableMsg(v))
}

// pushStateToRoot routes the vertex's full state to whichever endsystem is
// currently numerically closest to the vertexId.
func (e *Engine) pushStateToRoot(v *vertexState) {
	msg := e.tableMsg(v)
	e.cRepls.Inc()
	e.cReplRows.Add(uint64(msg.entries()))
	e.host.PastryNode().Route(v.id, msg, replMsgSize(msg.entries()), simnet.ClassQuery)
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
// change message order between runs. It is a snapshot: propagate can
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
func (e *Engine) NumVertices() int {
	n := 0
	for _, st := range e.queries {
		n += len(st.vertices)
	}
	return n
}

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
