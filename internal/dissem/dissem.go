// Package dissem implements Seaweed's query dissemination and completeness
// prediction protocol (§3.3). A query is assigned a queryId (the hash of
// its text and injection instant) and routed to the queryId's root, which
// broadcasts it divide-and-conquer over explicit namespace ranges: each
// recipient subdivides its range into 2^b equal subranges, keeps the one
// containing itself, and routes one message toward the midpoint of each of
// the others — reaching a live endsystem within that subrange in one
// Pastry hop in the common case. An endsystem that finds itself alone in a
// range (or closest to an empty one) takes responsibility for all
// unavailable endsystems in it, generating their completeness predictors
// from the replicated metadata; it also contributes its own predictor from
// its local row-count estimate. Predictors aggregate up the distribution
// tree at constant size. Parents reissue subrange requests that do not
// respond within a timeout, and responses are deduplicated per subrange,
// so each endsystem's contribution is counted exactly once with high
// probability.
package dissem

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// Config parameterizes the dissemination engine.
type Config struct {
	// Arity is the fan-out of the range subdivision. The paper describes
	// the tree as binary and implements it 2^b-ary (16); both are
	// supported for the ablation benchmarks. At most 65,536: a subrange
	// keeps its index in a uint16.
	Arity int
	// Seed drives the reissue jitter.
	Seed int64
	// DisableBackoff reverts reissues to the fixed
	// responseTimeout × maxRetries schedule. Ablation only: it exists so
	// the chaos invariant checker can demonstrate that fixed timeouts
	// lose subranges across outages the backoff schedule survives.
	DisableBackoff bool
}

const (
	// backoffCap caps the per-attempt reissue timeout grown by the
	// decorrelated-jitter exponential backoff. The total retry window —
	// the longest transient outage a dissemination survives — is roughly
	// the sum of the capped attempt timeouts.
	backoffCap = 4 * time.Minute
	// responseTimeout is the first response timeout: how long a parent
	// waits for a subrange's aggregated predictor before reissuing the
	// request. It sits above a whole tree's predictor latency (the paper's
	// 3.1 s at N=2,000; 1.4-1.5 s here, EXPERIMENTS.md), so a subrange
	// that is merely slow is not reissued.
	responseTimeout = 5 * time.Second
	// maxRetries bounds reissues per subrange (and, doubled, the
	// injector's retransmissions of its start message). With six, a
	// subrange is given up 9 to 15 minutes after its first request, which
	// outlasts every chaos scenario's fault windows; three or four do not
	// (DESIGN.md, "Retransmission").
	maxRetries = 6
)

// Schedules returns an engine's retransmission schedules: a subrange
// request's, and the injector's start message's, which may be re-sent
// twice as often. Both wait responseTimeout first. Then each timeout is
// two to three times the one before, capped at backoffCap: exponential
// backoff, whose factor-2 floor lets a bounded budget span multi-minute
// outages, with decorrelated jitter, which keeps simultaneous reissues out
// of lockstep. Under DisableBackoff each is responseTimeout again.
func Schedules(disableBackoff bool) (subrange, inject simnet.Backoff) {
	subrange = simnet.Backoff{First: responseTimeout, Grow: 2, Jitter: 1, Cap: backoffCap, Budget: maxRetries}
	if disableBackoff {
		subrange = simnet.Backoff{First: responseTimeout, Grow: 1, Budget: maxRetries}
	}
	inject = subrange
	inject.Budget *= 2
	return subrange, inject
}

// DefaultConfig returns the paper's configuration: 16-ary subdivision.
func DefaultConfig() Config {
	return Config{
		Arity: 16,
	}
}

// Host is the embedding Seaweed node: the engine calls back into it for
// local estimates, replicated metadata, and query registration.
type Host interface {
	// PastryNode returns the overlay node the engine runs on.
	PastryNode() *pastry.Node
	// EstimateOwnRows estimates how many local rows match the query (the
	// paper queries the local DBMS's estimator).
	EstimateOwnRows(q *relq.Query) float64
	// UnavailableInRange returns replicated metadata records of
	// currently-unavailable endsystems in the inclusive id range.
	UnavailableInRange(lo, hi ids.ID) []*metadata.Record
	// QueryObserved tells the host a query reached this endsystem, so it
	// can execute it locally and submit results. The engine calls it for
	// every range task it begins, so the host deduplicates (it holds the
	// once-per-uptime guard). injector is the endpoint that submitted the
	// query; cause is the span of the dissemination event that carried the
	// query here (0 when tracing is off).
	QueryObserved(queryID ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64)
}

// Engine runs the dissemination protocol for one endsystem.
type Engine struct {
	cfg  Config
	host Host
	node *pastry.Node // the host's overlay node, fixed at construction
	// rng is the reissue stream, seeded from cfg.Seed by the first reissue
	// (random): most engines never reissue, and a seeded source is 4.9 KB.
	rng *rand.Rand

	// Per-query state (DESIGN.md, "Dissemination: per-query state
	// lifecycle"). queries files this endsystem's range tasks by queryId:
	// the unfinished ones, and each finished one for retention, so a
	// reissued request gets the cached answer. Made at the first task, it
	// stays when it drains: its size follows the queries filed at once.
	// retired and retiredTail are the ends of a queue (linked through
	// task.next) of the finished tasks still filed, in finish order,
	// which — retention being one constant — is expiry order; nextExpiry
	// is retired's expiry, kept here so that the sweep on every message
	// reads no task until one is due.
	queries     map[ids.ID]*queryTasks
	retired     *task
	retiredTail *task
	nextExpiry  time.Duration

	// waiting holds injector-side callbacks keyed by queryId, with the
	// injection instant for predictor-latency accounting.
	waiting map[ids.ID]*pendingInject

	// Observability handles, cached at construction (nil-safe no-ops when
	// disabled).
	o          *obs.Obs
	cInjects   *obs.Counter   // dissem_injects
	cRangeMsgs *obs.Counter   // dissem_range_msgs
	cReissues  *obs.Counter   // dissem_reissues
	cAbandoned *obs.Counter   // dissem_abandoned
	cGiveups   *obs.Counter   // dissem_giveups
	cOnBehalf  *obs.Counter   // dissem_onbehalf_predictions
	cPruned    *obs.Counter   // rttscope_pruned
	cResps     *obs.Counter   // dissem_resps
	cRespEmpty *obs.Counter   // dissem_resps_empty
	cPredBytes *obs.Counter   // dissem_predictor_bytes
	hPredLat   *obs.Histogram // dissem_predictor_latency_ns

	// cands is a reused scratch buffer for coordinate-biased delegate
	// candidate enumeration (engines are single-threaded).
	cands []pastry.NodeRef
	// spare lists the fan-outs of this engine's finished interior tasks
	// (linked through fanout.next), for newFanout to reuse, spareQueries
	// the entries of swept queries, with their arrays, for file, and
	// spareTasks the swept tasks no response is in flight from (linked
	// through task.next), for newTask. An engine makes and finishes its
	// own fan-outs, entries and tasks, so the lists balance; sweep drops
	// them when the table drains.
	spare        *fanout
	spareQueries *queryTasks
	spareTasks   *task
	// counted is the last response this engine counted as delivered
	// (delivered).
	counted arrival
}

// arrival is a response's delivery: who sent it, for which range, and
// when. It holds no pointer, so it keeps no task alive.
type arrival struct {
	from simnet.Endpoint
	key  taskKey
	at   time.Duration
}

// pendingInject is one injector-side query awaiting its predictor.
type pendingInject struct {
	cb    func(*predictor.Predictor)
	at    time.Duration
	query *relq.Query
	retry simnet.Retry // the start message's
	span  uint64       // span of the latest inject/retry event
}

// NewEngine creates an engine for the host.
func NewEngine(host Host, cfg Config) *Engine {
	if cfg.Arity < 2 {
		cfg.Arity = 2
	}
	node := host.PastryNode()
	o := node.Ring().Obs()
	return &Engine{
		cfg:     cfg,
		host:    host,
		node:    node,
		waiting: make(map[ids.ID]*pendingInject),

		o:          o,
		cInjects:   o.Counter("dissem_injects"),
		cRangeMsgs: o.Counter("dissem_range_msgs"),
		cReissues:  o.Counter("dissem_reissues"),
		cAbandoned: o.Counter("dissem_abandoned"),
		cGiveups:   o.Counter("dissem_giveups"),
		cOnBehalf:  o.Counter("dissem_onbehalf_predictions"),
		cPruned:    o.Counter("rttscope_pruned"),
		cResps:     o.Counter("dissem_resps"),
		cRespEmpty: o.Counter("dissem_resps_empty"),
		cPredBytes: o.Counter("dissem_predictor_bytes"),
		hPredLat:   o.DurationHistogram("dissem_predictor_latency_ns"),
	}
}

// space returns the ring's network-coordinate space, nil when the
// subsystem is off. With one attached, initial delegate selection is
// biased toward the known candidate with the lowest predicted RTT inside
// each subrange (the id-valid candidate set is unchanged; ties break
// toward the smaller id so runs stay byte-identical per seed), and
// RTT-scoped queries prune subranges whose coordinate bounding balls fall
// entirely outside the query radius. Without one the id-only baseline
// holds.
func (e *Engine) space() *coords.Space { return e.node.Ring().Coords() }

// scope returns the space that enforces q's RTT scope, or nil when q
// carries none or the ring has no coordinates.
func (e *Engine) scope(q *relq.Query) *coords.Space {
	if q.RTTScope <= 0 {
		return nil
	}
	return e.space()
}

// Reset clears all per-query state (the endsystem restarted) and stops the
// injector's retries. A task of the previous incarnation is filed no more,
// so no response can reach it, and its subranges' next timeouts end their
// retries without a reissue or a giveup. Every removal from the table is
// by identity, so such a task cannot disturb one the new incarnation files
// for its range.
func (e *Engine) Reset() {
	for _, p := range e.waiting {
		p.retry.Cancel()
	}
	e.queries, e.spareQueries, e.spareTasks = nil, nil, nil
	for t := e.retired; t != nil; {
		next := t.next
		t.next = nil // as sweep does: no task keeps the queue alive
		t = next
	}
	e.retired, e.retiredTail = nil, nil
	e.waiting = make(map[ids.ID]*pendingInject)
	e.spare = nil
}

// QueryID derives the queryId for a query injected at the given virtual
// time: the hash of the query text and the injection instant, so repeated
// one-shot queries get distinct distribution trees.
func QueryID(q *relq.Query, at time.Duration) ids.ID {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(at) >> (8 * i))
	}
	return ids.HashBytes(append([]byte(q.Raw), buf[:]...))
}

// Inject submits a query at this endsystem. onPredictor is invoked once
// with the aggregated completeness predictor (typically seconds later).
// cause is the span of the causally preceding event (the query service's
// started event; 0 when the query arrives without one). It returns the
// queryId identifying the query systemwide.
func (e *Engine) Inject(q *relq.Query, cause uint64, onPredictor func(*predictor.Predictor)) ids.ID {
	now := e.node.Sched().Now()
	qid := QueryID(q, now)
	p := &pendingInject{cb: onPredictor, at: now, query: q}
	e.waiting[qid] = p
	e.cInjects.Inc()
	if sp := e.scope(q); sp != nil {
		// Freeze the RTT scope before the first route: Route can deliver
		// locally and synchronously, and every later membership or pruning
		// decision must see the same snapshot.
		sp.BeginScope(qid, e.node.Endpoint(), q.RTTScope)
	}
	p.span = e.o.EmitSpan(cause, obs.Event{Kind: obs.KindInject, Query: e.o.QueryTag(qid), EP: int(e.node.Endpoint())})
	msg := &startMsg{QueryID: qid, Query: q, Injector: e.node.Endpoint(), Cause: p.span}
	e.node.Route(qid, msg, startMsgSize(q), simnet.ClassQuery)
	_, b := Schedules(e.cfg.DisableBackoff)
	p.retry.Start(e.node.Sched(), &b, func() { e.injectTimeout(qid, p) })
	return qid
}

// injectTimeout retransmits the injector-to-root start message, whose loss
// would kill the whole query; the root deduplicates by task key and
// re-answers finished tasks from cache, so nothing double-counts. When the
// last of 2×maxRetries retransmissions goes unanswered, the query is given
// up as a whole-namespace loss (TestInjectorGiveUp).
func (e *Engine) injectTimeout(qid ids.ID, p *pendingInject) {
	if !e.node.Alive() {
		p.retry.Cancel()
		return
	}
	n := p.retry.N()
	_, b := Schedules(e.cfg.DisableBackoff)
	if b.Spent(n) {
		p.retry.Cancel()
		e.cGiveups.Inc()
		e.o.EmitSpan(p.span, obs.Event{Kind: obs.KindDissemGiveup, Query: e.o.QueryTag(qid),
			EP: int(e.node.Endpoint()), N: int64(n), V: 1.0})
		return
	}
	e.cReissues.Inc()
	p.span = e.o.EmitSpan(p.span, obs.Event{Kind: obs.KindDissemRetry, Query: e.o.QueryTag(qid),
		EP: int(e.node.Endpoint()), N: int64(n + 1)})
	msg := &startMsg{QueryID: qid, Query: p.query, Injector: e.node.Endpoint(), Cause: p.span}
	e.node.Route(qid, msg, startMsgSize(p.query), simnet.ClassQuery)
	p.retry.Again(&b, e.random)
}

// --------------------------------------------------------------- messages

// The Cause field on each message is the span of the sender-side event
// that caused the send (0 when tracing is off). It is trace metadata:
// message wire sizes deliberately exclude it, as a real deployment would
// carry trace context out of band or amortized into headers.

// startMsg travels from the injector to the queryId root.
type startMsg struct {
	QueryID  ids.ID
	Query    *relq.Query
	Injector simnet.Endpoint
	Cause    uint64
}

// scopeBytes is the extra wire weight of an RTT-scoped query: the radius
// and the injector's frozen coordinate (3 floats + height), carried so
// every delegate evaluates the same membership predicate.
const scopeBytes = 8 + 4*8

func scopeSize(q *relq.Query) int {
	if q.RTTScope > 0 {
		return scopeBytes
	}
	return 0
}

func startMsgSize(q *relq.Query) int { return ids.Bytes + 8 + len(q.Raw) + scopeSize(q) }

// queryHdr is a query's identity. The root builds one per root task, and
// every range message and fan-out of the query below it shares it by
// reference; nothing writes to its identity after. free is the one field
// that moves: the query's consumed range messages, for the next send of
// the same query to reuse (the wheel is single-threaded, so every engine
// of a cluster shares the list). It dies with the header, so it never
// outlives the query's dissemination.
type queryHdr struct {
	QueryID  ids.ID
	Query    *relq.Query
	Injector simnet.Endpoint // the query's home, carried to every endsystem
	free     *rangeMsg
}

// rangeMsg asks the recipient to produce the aggregated predictor for the
// inclusive namespace range [Lo, Hi].
//
// A range message reaches a handler at most once: it only travels through
// pastry.Node.Route, which delivers it synchronously or inside a route
// envelope the duplication fault never copies (simnet.SingleDelivery), and
// one the network drops is simply garbage. So HandleMessage recycles it
// onto its header's free list once the range task has copied it out.
type rangeMsg struct {
	Hdr    *queryHdr
	Lo, Hi ids.ID
	Parent simnet.Endpoint // where to send the response
	Cause  uint64
	next   *rangeMsg // queryHdr.free
}

// rangeMsg returns a request for [lo, hi] of h's query, reusing a
// consumed one when h has one.
func (h *queryHdr) rangeMsg(lo, hi ids.ID, parent simnet.Endpoint, cause uint64) *rangeMsg {
	m := h.free
	if m == nil {
		m = new(rangeMsg)
	} else {
		h.free = m.next
	}
	*m = rangeMsg{Hdr: h, Lo: lo, Hi: hi, Parent: parent, Cause: cause}
	return m
}

// recycle zeroes a consumed range message and puts it on its header's
// free list.
func (m *rangeMsg) recycle() {
	h := m.Hdr
	*m = rangeMsg{next: h.free}
	h.free = m
}

func rangeMsgSize(q *relq.Query) int { return 3*ids.Bytes + 8 + len(q.Raw) + scopeSize(q) }

// RangeRespHeaderBytes is what a subrange's response costs on the wire
// before the predictor it carries: the query id and the range. A response
// is the finished task itself (see task); the root task's, the query's
// final predictor for the injector, carries the query id alone.
const RangeRespHeaderBytes = 3 * ids.Bytes

// TraceQuery implements pastry.Traced, attributing routing events for
// dissemination traffic to the query's trace.
func (m *startMsg) TraceQuery() string { return m.QueryID.Short() }
func (m *rangeMsg) TraceQuery() string { return m.Hdr.QueryID.Short() }

// TraceSpan implements pastry.TracedSpan, chaining per-hop routing
// events (verbose traces) onto the sender's causal span.
func (m *startMsg) TraceSpan() uint64 { return m.Cause }
func (m *rangeMsg) TraceSpan() uint64 { return m.Cause }

// --------------------------------------------------------------- task

type taskKey struct {
	qid    ids.ID
	lo, hi ids.ID
}

// retention is how long a finished task stays filed. A request for the
// same range inside that window — a parent's reissue, or a new parent
// after the old one died — is answered from the finished task instead of
// disseminating the range a second time.
const retention = 2 * time.Minute

// task aggregates the predictor of one range at this endsystem. A leaf
// task (alone in its range) finishes the instant it is created; an
// interior task, the only kind with a fanout, finishes when its last
// subrange is answered or abandoned. Every task ends in Engine.finish, and
// from then on key, acc and respCause are frozen until sweep lets go of
// it: the task itself is the response every parent is sent, and receivers
// read only those three. sweep reuses a task (Engine.spareTasks) only once
// every response sent from it has been delivered, so no receiver can see
// it change.
//
// acc is held by value, and a predictor allocates its buckets only when
// one receives mass: a task with nothing to report or only Immediate rows
// — nearly every task in a run — is this one object of the 128-byte class,
// response included, and nothing more.
type task struct {
	key taskKey
	fan *fanout // an interior task's until it finishes; nil for a leaf
	// parent asked for the range first; more lists any further requesters
	// (a reissue from a new parent after the old one died) in the order
	// they asked, deduplicated.
	parent   simnet.Endpoint
	more     *requester
	acc      predictor.Predictor
	finished bool
	spare    bool          // on Engine.spareTasks: any use of it is a use after free (live)
	inFlight uint32        // responses sent over the network and not yet delivered
	expires  time.Duration // finished tasks only: when sweep lets go
	next     *task         // the task finished next (Engine.retired) or spare next; nil once swept
	// respCause is the span of the last contribution folded in — the child
	// whose response completed the fan-in, i.e. the causal parent of the
	// task's own response; the task's disseminate event until then.
	respCause uint64
}

// fanout is what an interior task holds while it waits on its subranges.
// Once its task finishes it goes on the engine's spare list (Engine.spare)
// and serves a later interior task of the same engine.
type fanout struct {
	hdr *queryHdr
	// width is the span of the task's range over the arity: with the range
	// itself, it gives every subrange its bounds (subrange.bounds).
	width ids.ID
	// subs are the awaited subranges, by value and in index order: the
	// response timeouts' callbacks point into the array, which is sized
	// once, to the arity, when the fan-out is first allocated. No retry
	// outlives its task's fan-out: the task finishes only once every
	// subrange is answered, which stops the retry, or abandoned, which is
	// what the retry's last timeout did.
	subs []subrange
	open int32   // subranges neither answered nor abandoned
	next *fanout // Engine.spare
}

// subrange is one awaited part of an interior task's range: part index of
// its split. Sixteen of its 48 bytes, with the runtime's 8-byte header,
// are one object of the 896-byte size class.
type subrange struct {
	task  *task        // the task awaiting this subrange
	local bool         // handled by local recursion, not a network child
	done  bool         // answered or abandoned: no response finds it any more
	index uint16       // which part of the task's range; kept when the RTT scope prunes others
	retry simnet.Retry // the request's
	cause uint64       // span of the latest send/retry event for this subrange
	// timeout is the slot's retry callback, built at its first send and
	// kept through the fan-out's reuses (newFanout, finish).
	timeout func()
}

// bounds returns the subrange's inclusive range.
func (s *subrange) bounds() (lo, hi ids.ID) {
	t := s.task
	return part(t.key.lo, t.key.hi, t.fan.width, uint64(s.index))
}

// part returns part i of a split of [lo, hi] whose width is the span over
// the arity: parts are width+1 ids wide and consecutive from lo, and the
// first to reach hi — part arity-1 at the latest, for arity·(width+1)
// exceeds the span — ends there. A span shorter than the arity splits into
// its single ids.
func part(lo, hi, width ids.ID, i uint64) (ids.ID, ids.ID) {
	start := lo.Add(mulUint(width.AddUint64(1), i))
	end := start.Add(width)
	if end.Less(start) || hi.Less(end) { // past the namespace's end, or the range's
		end = hi
	}
	return start, end
}

// newFanout gives t its fan-out over h's query: t's range split arity
// ways, less the parts an RTT scope prunes. The split ends at the first
// part that reaches the range's end, so it never comes back empty before
// pruning.
func (e *Engine) newFanout(t *task, h *queryHdr) *fanout {
	arity := e.cfg.Arity
	f := e.spare
	if f != nil {
		e.spare, f.next = f.next, nil
	} else {
		f = &fanout{subs: make([]subrange, 0, arity)}
	}
	f.hdr, f.width = h, divByUint(t.key.hi.Sub(t.key.lo), uint64(arity))
	t.fan = f
	// RTT-scoped queries drop subranges whose coordinate bounding balls
	// prove no member lies within the radius: nothing in-scope is lost
	// (the ball test is exact), and the completeness predictor never
	// expects the pruned endsystems.
	sp := e.scope(h.Query)
	for i := 0; i < arity; i++ {
		s := subrange{task: t, index: uint16(i)}
		lo, hi := s.bounds()
		if sp != nil && !sp.RangeInScope(h.QueryID, lo, hi) {
			e.cPruned.Inc()
		} else {
			f.subs = f.subs[:len(f.subs)+1]
			s.timeout = f.subs[len(f.subs)-1].timeout
			f.subs[len(f.subs)-1] = s
		}
		if hi == t.key.hi {
			break
		}
	}
	f.open = int32(len(f.subs))
	return f
}

// whole reports whether the key's range is the full namespace: the root
// task, whose parent is the injector.
func (k taskKey) whole() bool { return k.lo.IsZero() && k.hi == ids.MaxID }

// newTask returns a task for key, requested by parent, reusing a spare one
// when the engine has one.
func (e *Engine) newTask(key taskKey, parent simnet.Endpoint, span uint64) *task {
	t := e.spareTasks
	if t == nil {
		t = new(task)
	} else {
		e.spareTasks = t.next
	}
	*t = task{key: key, parent: parent, respCause: span}
	return t
}

// live returns t, and panics if t is on the spare list: whatever reached
// it there holds a reference that outlived the task.
func (t *task) live() *task {
	if t.spare {
		panic("dissem: a range task was used after it was swept for reuse")
	}
	return t
}

// queryTasks is one query's entry in Engine.queries: its range tasks on
// this endsystem, a handful, one per range, in the order they were filed.
type queryTasks struct {
	tasks []*task
	next  *queryTasks // Engine.spareQueries
}

// list returns q's tasks, none when q is nil (the query has no entry).
func (q *queryTasks) list() []*task {
	if q == nil {
		return nil
	}
	return q.tasks
}

// find returns the task for [lo, hi] among tasks, nil if there is none.
func find(tasks []*task, lo, hi ids.ID) *task {
	for _, t := range tasks {
		if t.key.lo == lo && t.key.hi == hi {
			return t
		}
	}
	return nil
}

// awaiting returns the subrange [lo, hi] of one of tasks while it is
// unanswered and its task unfinished: the one a response for [lo, hi]
// answers. Splits nest, so several tasks may hold [lo, hi] (a task and its
// local child), but only one has a subrange with exactly those bounds.
func awaiting(tasks []*task, lo, hi ids.ID) *subrange {
	for _, t := range tasks {
		f := t.fan
		if f == nil || lo.Less(t.key.lo) || t.key.hi.Less(hi) {
			continue // finished, or [lo, hi] is not inside its range
		}
		// The subranges are in index order: find the one holding lo.
		i := sort.Search(len(f.subs), func(i int) bool {
			_, shi := f.subs[i].bounds()
			return !shi.Less(lo)
		})
		if i < len(f.subs) && !f.subs[i].done {
			if slo, shi := f.subs[i].bounds(); slo == lo && shi == hi {
				return &f.subs[i]
			}
		}
	}
	return nil
}

// file enters t, a new task, under its query's entry q (nil if none yet).
func (e *Engine) file(q *queryTasks, t *task) {
	if q == nil {
		if q = e.spareQueries; q != nil {
			e.spareQueries, q.next = q.next, nil
		} else {
			q = &queryTasks{tasks: make([]*task, 0, 4)} // a query has ~4 tasks on an endsystem
		}
		if e.queries == nil {
			e.queries = make(map[ids.ID]*queryTasks)
		}
		e.queries[t.key.qid] = q
	}
	q.tasks = append(q.tasks, t)
}

// unfile removes t from the table, by identity (a task of a previous
// incarnation is filed no more, see Reset). Its query's entry goes to the
// spare list with the query's last task.
func (e *Engine) unfile(t *task) {
	q := e.queries[t.key.qid]
	i := slices.Index(q.list(), t)
	if i < 0 {
		return
	}
	if q.tasks = slices.Delete(q.tasks, i, i+1); len(q.tasks) == 0 {
		delete(e.queries, t.key.qid)
		q.next, e.spareQueries = e.spareQueries, q
	}
}

// requester is one further parent of a task. Few tasks ever have one, so
// the task carries a list head rather than a slice header.
type requester struct {
	ep   simnet.Endpoint
	next *requester
}

// addParent registers a further requester, deduplicated.
func (t *task) addParent(ep simnet.Endpoint) {
	if ep == t.parent {
		return
	}
	at := &t.more
	for ; *at != nil; at = &(*at).next {
		if (*at).ep == ep {
			return
		}
	}
	*at = &requester{ep: ep}
}

// HandleMessage processes a dissemination message; it reports whether the
// payload belonged to this engine. The host hands it every message first,
// so finished tasks whose retention has run out leave the table here,
// whatever the message is.
func (e *Engine) HandleMessage(from simnet.Endpoint, payload any) bool {
	if e.retired != nil {
		e.sweep(e.node.Sched().Now())
	}
	switch m := payload.(type) {
	case *startMsg:
		e.handleStart(m)
	case *rangeMsg:
		e.beginTask(m.Hdr, m.Lo, m.Hi, m.Parent, m.Cause)
		m.recycle()
	case *task:
		e.delivered(from, m)
		if !m.key.whole() {
			e.handleResp(m)
			break
		}
		// The root task's response: the query's final predictor.
		if p, ok := e.waiting[m.key.qid]; ok {
			delete(e.waiting, m.key.qid)
			p.retry.Cancel()
			e.hPredLat.ObserveDuration(e.node.Sched().Now() - p.at)
			e.o.EmitSpan(m.respCause, obs.Event{Kind: obs.KindPredict, Query: e.o.QueryTag(m.key.qid),
				EP: int(e.node.Endpoint()), V: m.acc.ExpectedTotal()})
			if p.cb != nil {
				p.cb(&m.acc)
			}
		}
	default:
		return false
	}
	return true
}

// handleStart runs at the queryId root: begin the broadcast over the full
// namespace, with the injector as the parent of the root range.
func (e *Engine) handleStart(m *startMsg) {
	h := &queryHdr{QueryID: m.QueryID, Query: m.Query, Injector: m.Injector}
	e.beginTask(h, ids.ID{}, ids.MaxID, m.Injector, m.Cause)
}

// beginTask starts (or re-answers) the aggregation task for one range of
// h's query. cause is the span of the message (or local recursion) that
// requested the range.
func (e *Engine) beginTask(h *queryHdr, lo, hi ids.ID, parent simnet.Endpoint, cause uint64) {
	// Expired tasks leave the table before it is consulted, so a hit below
	// is always inside its retention window (local recursion reaches here
	// without a message).
	e.sweep(e.node.Sched().Now())
	qid := h.QueryID
	q := e.queries[qid]
	if t := find(q.list(), lo, hi); t != nil {
		// Duplicate request (a reissue, or a new parent after the old one
		// died): remember the extra parent and re-answer if finished.
		t.addParent(parent)
		if t.finished {
			e.respond(t)
		}
		return
	}
	span := e.o.EmitSpan(cause, obs.Event{Kind: obs.KindDisseminate, Query: e.o.QueryTag(qid),
		EP: int(e.node.Endpoint())})
	t := e.newTask(taskKey{qid: qid, lo: lo, hi: hi}, parent, span)
	e.file(q, t)
	e.host.QueryObserved(qid, h.Query, h.Injector, span)
	// Split into arity equal subranges, unless the task is a leaf or the
	// RTT scope pruned every subrange (checked before any send: once a send
	// can answer, the task may finish and its fan-out serve another task).
	if lo == hi || e.aloneInRange(lo, hi) || len(e.newFanout(t, h).subs) == 0 {
		// Nothing to wait for: contribute own rows (if in range) and
		// predict on behalf of every unavailable endsystem in the range.
		e.contributeLocal(&t.acc, qid, h.Query, span, lo, hi)
		e.finish(t)
		return
	}
	// The subrange containing self recurses locally (no message); the rest
	// are answered in place or routed toward their midpoints.
	f, self := t.fan, e.node.ID()
	var selfSub *subrange
	for i := range f.subs {
		s := &f.subs[i]
		s.cause = span
		if self.InRange(s.bounds()) {
			s.local = true
			selfSub = s
		}
	}
	// A slot can be answered synchronously (in place, or by a send that comes
	// straight back): the last can finish t and hand f on, so nothing reads f after.
	for i := range f.subs {
		if s := &f.subs[i]; !s.local && !e.answerInPlace(s) {
			e.sendSubrange(s)
		}
	}
	if selfSub != nil {
		// Local recursion: a child task whose parent is this node itself,
		// its response arriving synchronously through handleResp.
		slo, shi := selfSub.bounds()
		e.beginTask(h, slo, shi, e.node.Endpoint(), span)
	}
}

// answerInPlace answers subrange s in its slot, with no request, when the
// request would come straight back as a leaf: s is this node's own id or
// empty by the leafset, its first target resolves here, and no task for it
// is filed (a filed, retained task must see the request, to re-answer
// every parent it has). It reports whether it answered.
func (e *Engine) answerInPlace(s *subrange) bool {
	t := s.task
	lo, hi := s.bounds()
	if lo != hi && !e.aloneInRange(lo, hi) || !e.node.IsRootOf(e.firstTarget(lo, hi)) ||
		find(e.queries[t.key.qid].list(), lo, hi) != nil {
		return false
	}
	// What the leaf task would have sent back, merged as its response is.
	var p predictor.Predictor
	e.contributeLocal(&p, t.key.qid, t.fan.hdr.Query, s.cause, lo, hi)
	e.answer(s, &p, s.cause)
	return true
}

// aloneInRange reports whether, per the local leafset, this node is the
// only live endsystem in [lo, hi] (or the range holds no live endsystem at
// all). Leafsets are the authoritative neighborhood view: if the nearest
// live neighbors on both sides lie outside the range, no other live node
// can be inside it.
func (e *Engine) aloneInRange(lo, hi ids.ID) bool {
	// The view is sorted by id: the range holds a member exactly when the
	// first member at or above lo is at or below hi.
	leaf := e.node.LeafsetView()
	i, _ := slices.BinarySearchFunc(leaf, lo, func(m pastry.NodeRef, key ids.ID) int { return m.ID.Cmp(key) })
	return i == len(leaf) || hi.Less(leaf[i].ID)
}

// contributeLocal adds to acc this node's own predictor (when in range)
// and the metadata-derived predictors of unavailable endsystems in the
// range. span is the range task's disseminate event.
func (e *Engine) contributeLocal(acc *predictor.Predictor, qid ids.ID, q *relq.Query, span uint64, lo, hi ids.ID) {
	now := e.node.Sched().Now()
	sp := e.scope(q)
	if e.node.ID().InRange(lo, hi) &&
		(sp == nil || sp.InScope(qid, e.node.Endpoint())) {
		acc.AddImmediate(e.host.EstimateOwnRows(q))
	}
	nowSecs := int64(now / time.Second)
	for _, rec := range e.host.UnavailableInRange(lo, hi) {
		if rec.Summary == nil || rec.Model == nil {
			continue
		}
		if sp != nil && !sp.InScopeID(qid, rec.Subject) {
			continue // the unavailable endsystem is outside the RTT scope
		}
		rows := rec.Summary.EstimateRows(q, nowSecs)
		if rows <= 0 {
			continue
		}
		e.cOnBehalf.Inc()
		if e.o.Detail() {
			e.o.EmitSpanDetail(span, obs.Event{Kind: obs.KindOnBehalf, Query: e.o.QueryTag(qid),
				EP: int(e.node.Endpoint()), V: rows})
		}
		acc.AddModel(rec.Model, now, rec.DownSince, rows)
	}
}

// sendSubrange routes the request for one subrange to its firstTarget and
// arms its response timeout: the retry's first, or on a reissue its next.
// A reissue retargets a random point inside the subrange: the first target
// always resolves to the same delegate, so when that one is dead or
// partitioned every retry would sail into the same hole. Duplicate
// delegates are harmless — the parent counts the first response only, and
// endsystems deduplicate query execution.
func (e *Engine) sendSubrange(s *subrange) {
	h := s.task.fan.hdr
	lo, hi := s.bounds()
	msg := h.rangeMsg(lo, hi, e.node.Endpoint(), s.cause)
	e.cRangeMsgs.Inc()
	// Arm the timer BEFORE routing: Route can deliver locally and answer
	// synchronously (a self-routed request that a task filed here
	// answers), and the response path stops it.
	if b, _ := Schedules(e.cfg.DisableBackoff); !s.retry.Again(&b, e.random) {
		if s.timeout == nil {
			s.timeout = func() { e.subrangeTimeout(s) }
		}
		s.retry.Start(e.node.Sched(), &b, s.timeout)
	}
	var target ids.ID
	if s.retry.N() > 0 {
		target = ids.RandomInRange(e.random(), lo, hi)
	} else {
		target = e.firstTarget(lo, hi)
	}
	e.node.Route(target, msg, rangeMsgSize(h.Query), simnet.ClassQuery)
}

// firstTarget is where the first request for [lo, hi] goes: the midpoint,
// or with coordinates the lowest-predicted-RTT node this node knows inside
// it (an id-valid delegate: routing to its id reaches it or, if it just
// died, the numerically closest live node, as the midpoint would).
func (e *Engine) firstTarget(lo, hi ids.ID) ids.ID {
	if sp := e.space(); sp != nil {
		if ref, ok := e.nearestDelegate(sp, lo, hi); ok {
			return ref.ID
		}
	}
	return ids.Midpoint(lo, hi)
}

// nearestDelegate picks, among the nodes this endsystem's own routing
// state knows inside [lo, hi], the one with the lowest predicted RTT.
// Candidates arrive sorted by id and the comparison is strict, so the
// choice is deterministic (ties go to the smaller id). ok is false when nothing in range is known locally.
func (e *Engine) nearestDelegate(sp *coords.Space, lo, hi ids.ID) (pastry.NodeRef, bool) {
	e.cands = e.node.AppendKnownInRange(e.cands[:0], lo, hi)
	self := e.node.Endpoint()
	var best pastry.NodeRef
	var bestRTT time.Duration
	found := false
	for _, c := range e.cands {
		if c.EP == self {
			continue
		}
		rtt := sp.PredictRTT(self, c.EP)
		if !found || rtt < bestRTT {
			best, bestRTT, found = c, rtt, true
		}
	}
	return best, found
}

// random returns the reissue stream, seeding it on first use.
func (e *Engine) random() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(ids.NewSource(e.cfg.Seed))
	}
	return e.rng
}

// rangeFraction returns the fraction of the 128-bit identifier namespace
// the inclusive range [lo, hi] covers.
func rangeFraction(lo, hi ids.ID) float64 {
	const two64 = 18446744073709551616.0 // 2^64
	span := hi.Sub(lo)
	return float64(span.Hi)/two64 + float64(span.Lo)/(two64*two64)
}

// subrangeTimeout reissues an unanswered subrange request, or gives up
// when the last of its maxRetries reissues goes unanswered (the
// contribution is then missing from the predictor — the paper's "with
// high probability" caveat — and, worse, endsystems in the subrange never
// observe the query; the giveup event makes that loss visible and
// attributable). A task of a previous incarnation (see Reset) stops here:
// nothing can answer it any more.
func (e *Engine) subrangeTimeout(s *subrange) {
	t := s.task
	if s.done || t.finished || !e.node.Alive() || !slices.Contains(e.queries[t.key.qid].list(), t) {
		s.retry.Cancel()
		return
	}
	tag := e.o.QueryTag(t.key.qid)
	n := s.retry.N()
	if b, _ := Schedules(e.cfg.DisableBackoff); b.Spent(n) {
		s.retry.Cancel()
		s.done = true // abandoned: no response finds it after
		t.fan.open--
		e.cAbandoned.Inc()
		s.cause = e.o.EmitSpan(s.cause, obs.Event{Kind: obs.KindDissemAbandon, Query: tag,
			EP: int(e.node.Endpoint()), N: int64(n)})
		e.cGiveups.Inc()
		e.o.EmitSpan(s.cause, obs.Event{Kind: obs.KindDissemGiveup, Query: tag,
			EP: int(e.node.Endpoint()), N: int64(n),
			V: rangeFraction(s.bounds())})
		if t.fan.open == 0 {
			e.finish(t)
		}
		return
	}
	e.cReissues.Inc()
	s.cause = e.o.EmitSpan(s.cause, obs.Event{Kind: obs.KindDissemRetry, Query: tag,
		EP: int(e.node.Endpoint()), N: int64(n + 1)})
	e.sendSubrange(s)
}

// handleResp folds a child's response, its finished task c, into the
// parent task: c's key finds the subrange, which takes c's acc and
// respCause. A subrange is found only while it is unanswered and its task
// unfinished and filed, so a duplicate (a reissued request's), a late
// response (its subrange abandoned, its task finished) and one this
// incarnation never asked for all miss: each subrange counts exactly once.
func (e *Engine) handleResp(c *task) {
	if s := awaiting(e.queries[c.live().key.qid].list(), c.key.lo, c.key.hi); s != nil {
		e.answer(s, &c.acc, c.respCause)
	}
}

// delivered counts the arrival of a response, the task c, from the
// endsystem at from against c's sends. The duplication fault delivers its
// copy of a message at the same instant as the original, as the event
// next to it, so a second arrival of the same sender's response for the
// same range at the same instant is taken for that copy and not counted.
// The rule can only count too few, which keeps c from reuse (sweep), never
// too many.
func (e *Engine) delivered(from simnet.Endpoint, c *task) {
	a := arrival{from: from, key: c.live().key, at: e.node.Sched().Now()}
	if a == e.counted {
		return
	}
	e.counted = a
	c.inFlight--
}

// answer settles subrange s with its predictor, pred, and the span that
// produced it, cause, and finishes its task when s was the last open.
func (e *Engine) answer(s *subrange, pred *predictor.Predictor, cause uint64) {
	t := s.task
	s.done = true // answered: no response finds it after
	t.fan.open--
	s.retry.Cancel()
	t.acc.Merge(pred)
	// The response that completes the fan-in is the task's critical
	// child; its span becomes the causal parent of this task's own
	// response.
	if cause != 0 {
		t.respCause = cause
	}
	if t.fan.open == 0 {
		e.finish(t)
	}
}

// finish is the one way a task ends — leaf, interior or degenerate. It
// freezes key, acc and respCause, answers every parent, and starts the
// retention window: the task stays filed, to re-answer reissued requests,
// until sweep lets it go. No timer is armed. Every task that gets here is
// filed: beginTask has just filed it, and handleResp and subrangeTimeout
// act only on filed tasks, so one of a previous incarnation never
// finishes. An interior task's fan-out goes to the spare list.
func (e *Engine) finish(t *task) {
	t.finished = true
	if f := t.fan; f != nil {
		// All settled: nothing points into the subranges any more but
		// their timeout callbacks, which stay.
		t.fan = nil
		for i := range f.subs {
			f.subs[i] = subrange{timeout: f.subs[i].timeout}
		}
		f.subs, f.hdr, f.next = f.subs[:0], nil, e.spare
		e.spare = f
	}
	t.expires = e.node.Sched().Now() + retention
	if e.retiredTail == nil {
		e.retired, e.nextExpiry = t, t.expires
	} else {
		e.retiredTail.next = t
	}
	e.retiredTail = t
	e.respond(t)
}

// sweep drops the finished tasks whose retention has run out. beginTask
// calls it before every lookup, so an expired task is never found, and
// HandleMessage on every message the endsystem receives, so one leaves the
// table at the first message after its retention: expiry needs no timer.
// A swept task goes on the spare list when every response sent from it
// has been delivered, unless it is the root's, whose acc the injector's
// callback was handed to keep; one with a response lost or in flight is
// left to the collector.
func (e *Engine) sweep(now time.Duration) {
	if e.retired == nil || e.nextExpiry > now {
		return
	}
	for t := e.retired; t != nil && t.expires <= now; t = e.retired {
		// Unlink fully: a response in flight is t and keeps it alive, and
		// must not keep the rest of the queue with it.
		e.retired, t.next = t.next, nil
		e.unfile(t)
		if t.inFlight == 0 && !t.key.whole() {
			*t = task{spare: true, next: e.spareTasks}
			e.spareTasks = t
		}
	}
	if e.retired != nil {
		e.nextExpiry = e.retired.expires
		return
	}
	e.retiredTail = nil
	if len(e.queries) == 0 {
		// Drained: an idle engine holds no spare.
		e.spareQueries, e.spare, e.spareTasks = nil, nil, nil
	}
}

// respond sends a finished task to its parents as their response: the
// final predictor when the parent is the injector (full-namespace task),
// a subrange's otherwise. Parents deduplicate per subrange, so answering
// every registered parent preserves exactly-once counting. Receivers only
// read the task's frozen key, acc and respCause.
func (e *Engine) respond(t *task) {
	e.respondTo(t.live(), t.parent)
	for p := t.more; p != nil; p = p.next {
		e.respondTo(t, p.ep)
	}
}

func (e *Engine) respondTo(t *task, parent simnet.Endpoint) {
	if !t.key.whole() && parent == e.node.Endpoint() {
		// Self-recursion: deliver locally without a network hop.
		e.handleResp(t)
		return
	}
	// The wire carries the frozen acc's encoding, sized here rather than
	// kept on the task: a response costs what its predictor holds, one byte
	// with nothing to report (predictor.AppendEncode).
	predLen := t.acc.EncodedLen()
	e.cResps.Inc()
	if predLen == 1 {
		e.cRespEmpty.Inc()
	}
	e.cPredBytes.Add(uint64(predLen))
	size := RangeRespHeaderBytes + predLen
	if t.key.whole() {
		size = ids.Bytes + predLen
	}
	t.inFlight++
	e.node.Ring().Network().Send(e.node.Endpoint(), parent, size, simnet.ClassQuery, t)
}

// mulUint multiplies a 128-bit value by an unsigned integer, modulo 2^128.
func mulUint(v ids.ID, by uint64) ids.ID {
	hi, lo := bits.Mul64(v.Lo, by)
	return ids.ID{Hi: v.Hi*by + hi, Lo: lo}
}

// divByUint divides a 128-bit value by a non-zero unsigned integer.
func divByUint(v ids.ID, by uint64) ids.ID {
	hi, rem := bits.Div64(0, v.Hi, by)
	lo, _ := bits.Div64(rem, v.Lo, by)
	return ids.ID{Hi: hi, Lo: lo}
}
