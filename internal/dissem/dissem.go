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
	"math/rand"
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
	// supported for the ablation benchmarks.
	Arity int
	// MaxRetries bounds reissues per subrange.
	MaxRetries int
	// Seed drives the reissue jitter.
	Seed int64
	// DisableBackoff reverts reissues to the fixed
	// responseTimeout × MaxRetries schedule. Ablation only: it exists so
	// the chaos invariant checker can demonstrate that fixed timeouts
	// lose subranges across outages the backoff schedule survives.
	DisableBackoff bool
	// Coords, when non-nil, is the cluster's network-coordinate space.
	// Initial delegate selection is then biased toward the known candidate
	// with the lowest predicted RTT inside each subrange (the id-valid
	// candidate set is unchanged; ties break toward the smaller id so runs
	// stay byte-identical per seed), and RTT-scoped queries
	// prune subranges whose coordinate bounding balls fall entirely
	// outside the query radius. Nil preserves the id-only baseline.
	Coords *coords.Space
}

const (
	// backoffCap caps the per-attempt reissue timeout grown by the
	// decorrelated-jitter exponential backoff. The total retry window —
	// the longest transient outage a dissemination survives — is roughly
	// the sum of the capped attempt timeouts.
	backoffCap = 4 * time.Minute
	// minTimeout floors the adaptive initial timeout.
	minTimeout = time.Second
	// responseTimeout is the base response timeout: how long a parent
	// waits for a subrange's aggregated predictor before reissuing the
	// request when it has no RTT observations yet. It sits above a whole
	// tree's predictor latency (the paper's 3.1 s at N=2,000; 1.4-1.5 s
	// here, EXPERIMENTS.md), so a subrange that is merely slow is not
	// reissued. Once responses have been observed, the initial timeout
	// adapts to srtt + 4·rttvar (clamped to [minTimeout,
	// responseTimeout]).
	responseTimeout = 5 * time.Second
)

// DefaultConfig returns the paper's configuration: 16-ary subdivision.
func DefaultConfig() Config {
	return Config{
		Arity:      16,
		MaxRetries: 3,
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
	// every range task it begins — at least once per query, and again for
	// each further range and each request that outlives a task's retention
	// — so the host deduplicates: it holds the once-per-uptime guard for
	// this path and for the ones that do not pass through the engine.
	// injector is the endpoint that submitted the query, where incremental
	// results are delivered. cause is the span of the dissemination event
	// that carried the query here (0 when tracing is off), so execution
	// spans chain onto the dissemination tree.
	QueryObserved(queryID ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64)
}

// Engine runs the dissemination protocol for one endsystem.
type Engine struct {
	cfg  Config
	host Host
	rng  *rand.Rand

	// Per-query state (see DESIGN.md, "Per-query state lifecycle"). tasks
	// holds this endsystem's range tasks: the unfinished ones, and each
	// finished one for retention after it finished, so a reissued request
	// gets the cached answer. awaited indexes every unanswered subrange of
	// every unfinished task by (queryId, lo, hi) — a rangeResp carries
	// exactly that key, so it finds its (task, subrange) in one lookup.
	// retired and retiredTail are the ends of a queue (linked through
	// task.next) of the finished tasks still in tasks, in finish order,
	// which — retention being one constant — is expiry order.
	tasks       map[taskKey]*task
	awaited     map[taskKey]*subrange
	retired     *task
	retiredTail *task

	// waiting holds injector-side callbacks keyed by queryId, with the
	// injection instant for predictor-latency accounting.
	waiting map[ids.ID]*pendingInject

	// Smoothed subrange response time and its mean deviation (Jacobson),
	// sampled from unretried subrange responses per Karn's rule. They set
	// the RTT-aware floor and adaptive initial value of reissue timeouts.
	srtt   time.Duration
	rttvar time.Duration

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
}

// pendingInject is one injector-side query awaiting its predictor.
type pendingInject struct {
	cb          func(*predictor.Predictor)
	at          time.Duration
	query       *relq.Query
	attempts    int
	lastTimeout time.Duration
	timer       simnet.Timer
	span        uint64 // span of the latest inject/retry event
}

// NewEngine creates an engine for the host.
func NewEngine(host Host, cfg Config) *Engine {
	if cfg.Arity < 2 {
		cfg.Arity = 2
	}
	o := host.PastryNode().Ring().Obs()
	return &Engine{
		cfg:     cfg,
		host:    host,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tasks:   make(map[taskKey]*task),
		awaited: make(map[taskKey]*subrange),
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

// scoped reports whether q carries an RTT scope the engine can enforce.
func (e *Engine) scoped(q *relq.Query) bool {
	return q.RTTScope > 0 && e.cfg.Coords != nil
}

// Reset clears all per-query state (the endsystem restarted). Stale
// inject-retry timers recognize the replaced maps and fall through. A
// task of the previous incarnation whose subrange timers are still armed
// runs its retry ladder out as before, but it is in neither table any
// more: no response can reach it, and every removal below is by identity,
// so it cannot disturb a task the new incarnation created under its key.
func (e *Engine) Reset() {
	for _, p := range e.waiting {
		p.timer.Cancel()
	}
	e.tasks = make(map[taskKey]*task)
	e.awaited = make(map[taskKey]*subrange)
	for t := e.retired; t != nil; {
		next := t.next
		t.next = nil // as sweep does: no task keeps the queue alive
		t = next
	}
	e.retired, e.retiredTail = nil, nil
	e.waiting = make(map[ids.ID]*pendingInject)
	e.srtt, e.rttvar = 0, 0
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
	node := e.host.PastryNode()
	now := node.Sched().Now()
	qid := QueryID(q, now)
	p := &pendingInject{cb: onPredictor, at: now, query: q}
	e.waiting[qid] = p
	e.cInjects.Inc()
	if e.scoped(q) {
		// Freeze the RTT scope before the first route: Route can deliver
		// locally and synchronously, and every later membership or pruning
		// decision must see the same snapshot.
		e.cfg.Coords.BeginScope(qid, node.Endpoint(), q.RTTScope)
	}
	p.span = e.o.EmitSpan(cause, obs.Event{Kind: obs.KindInject, Query: e.o.QueryTag(qid), EP: int(node.Endpoint())})
	msg := &startMsg{QueryID: qid, Query: q, Injector: node.Endpoint(), Cause: p.span}
	node.Route(qid, msg, startMsgSize(q), simnet.ClassQuery)
	e.armInjectRetry(qid, p)
	return qid
}

// armInjectRetry schedules retransmission of the injector-to-root start
// message. The start message previously had no delivery guarantee at all:
// losing it killed the whole query silently. Retries follow the same
// adaptive backoff as subrange reissues; the root deduplicates by task
// key and re-answers finished tasks from cache, so retransmission never
// double-counts. After 2×MaxRetries unanswered attempts the query is
// given up as a whole-namespace loss.
func (e *Engine) armInjectRetry(qid ids.ID, p *pendingInject) {
	node := e.host.PastryNode()
	if p.attempts > 2*e.cfg.MaxRetries {
		e.cGiveups.Inc()
		e.o.EmitSpan(p.span, obs.Event{Kind: obs.KindDissemGiveup, Query: e.o.QueryTag(qid),
			EP: int(node.Endpoint()), N: int64(p.attempts), V: 1.0})
		return
	}
	d := e.attemptTimeout(p.attempts, p.lastTimeout)
	p.lastTimeout = d
	p.timer = node.Sched().After(d, func() {
		if e.waiting[qid] != p || !node.Alive() {
			return
		}
		p.attempts++
		e.cReissues.Inc()
		p.span = e.o.EmitSpan(p.span, obs.Event{Kind: obs.KindDissemRetry, Query: e.o.QueryTag(qid),
			EP: int(node.Endpoint()), N: int64(p.attempts)})
		msg := &startMsg{QueryID: qid, Query: p.query, Injector: node.Endpoint(), Cause: p.span}
		node.Route(qid, msg, startMsgSize(p.query), simnet.ClassQuery)
		e.armInjectRetry(qid, p)
	})
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

// rangeMsg asks the recipient to produce the aggregated predictor for the
// inclusive namespace range [Lo, Hi].
type rangeMsg struct {
	QueryID  ids.ID
	Query    *relq.Query
	Lo, Hi   ids.ID
	Parent   simnet.Endpoint // where to send the rangeResp
	Injector simnet.Endpoint // the query's home, carried to every endsystem
	Cause    uint64
}

func rangeMsgSize(q *relq.Query) int { return 3*ids.Bytes + 8 + len(q.Raw) + scopeSize(q) }

// rangeResp carries a subrange's aggregated predictor back to the parent:
// the responding task's own, frozen acc. One with nothing to report is one
// byte on the wire (predictor.AppendEncode).
type rangeResp struct {
	QueryID ids.ID
	Lo, Hi  ids.ID
	Pred    *predictor.Predictor
	Cause   uint64
}

// RangeRespHeaderBytes is what a rangeResp costs on the wire before the
// predictor it carries: the query id and the range.
const RangeRespHeaderBytes = 3 * ids.Bytes

// rangeRespSize and predictorMsgSize take the encoded length of the
// predictor carried: a response costs what its predictor holds.
func rangeRespSize(predLen int) int { return RangeRespHeaderBytes + predLen }

// predictorMsg returns the final aggregated predictor to the injector.
type predictorMsg struct {
	QueryID ids.ID
	Pred    *predictor.Predictor
	Cause   uint64
}

func predictorMsgSize(predLen int) int { return ids.Bytes + predLen }

// TraceQuery implements pastry.Traced, attributing routing events for
// dissemination traffic to the query's trace.
func (m *startMsg) TraceQuery() string     { return m.QueryID.Short() }
func (m *rangeMsg) TraceQuery() string     { return m.QueryID.Short() }
func (m *rangeResp) TraceQuery() string    { return m.QueryID.Short() }
func (m *predictorMsg) TraceQuery() string { return m.QueryID.Short() }

// TraceSpan implements pastry.TracedSpan, chaining per-hop routing
// events (verbose traces) onto the sender's causal span.
func (m *startMsg) TraceSpan() uint64     { return m.Cause }
func (m *rangeMsg) TraceSpan() uint64     { return m.Cause }
func (m *rangeResp) TraceSpan() uint64    { return m.Cause }
func (m *predictorMsg) TraceSpan() uint64 { return m.Cause }

// --------------------------------------------------------------- task

type taskKey struct {
	qid    ids.ID
	lo, hi ids.ID
}

// retention is how long a finished task stays in the engine's table. A
// request for the same range inside that window — a parent's reissue, or
// a new parent after the old one died — is answered from the finished
// task instead of disseminating the range a second time.
const retention = 2 * time.Minute

// subrange is one awaited part of an interior task's range. Sixteen of its
// 88 bytes fill splitRange's array in the 1,408-byte size class; retries is
// an int32 so that it shares the flags' word and the timer handle fits.
type subrange struct {
	lo, hi      ids.ID
	task        *task // the task awaiting this subrange
	local       bool  // handled by local recursion, not a network child
	done        bool  // answered or abandoned: no longer in Engine.awaited
	retries     int32
	sentAt      time.Duration // when the latest request went out
	lastTimeout time.Duration // timeout armed for the latest request
	timer       simnet.Timer
	cause       uint64 // span of the latest send/retry event for this subrange
}

// onTimeout is the subrange's response-timeout callback.
func (s *subrange) onTimeout() { s.task.eng.subrangeTimeout(s) }

// task aggregates the predictor of one range at this endsystem. A leaf
// task (alone in its range) finishes the instant it is created; an
// interior task finishes when its last subrange is answered or abandoned.
// Every task ends in Engine.finish, and from then on acc is frozen:
// responses and the final predictorMsg carry &acc itself, not a copy.
//
// acc is held by value, and a predictor allocates its buckets only when
// one receives mass: a task with nothing to report (an empty range handed
// to the nearest endsystem, an endsystem whose histogram expects no
// matching row) or only Immediate rows — nearly every task in a run — is
// this one object of the 192-byte class and nothing more.
type task struct {
	eng      *Engine
	key      taskKey
	query    *relq.Query
	injector simnet.Endpoint
	// parent asked for the range first; more lists any further requesters
	// (a reissue from a new parent after the old one died) in the order
	// they asked, deduplicated.
	parent simnet.Endpoint
	more   *requester
	acc    predictor.Predictor
	// subs are the awaited subranges, by value: Engine.awaited and the
	// response timers point into the array, which is sized once. Released
	// when the task finishes.
	subs     []subrange
	open     int32 // subranges neither answered nor abandoned
	finished bool
	expires  time.Duration // finished tasks only: when the table lets go
	next     *task         // the task finished next (Engine.retired); nil once swept
	// span is this task's disseminate event; respCause is the span of the
	// last contribution folded in — the child whose response completed the
	// fan-in, i.e. the causal parent of the task's own response.
	span      uint64
	respCause uint64
}

// newTask allocates the task for key and enters it in the table. span is
// its disseminate event.
func (e *Engine) newTask(key taskKey, q *relq.Query, parent, injector simnet.Endpoint, span uint64) *task {
	t := &task{eng: e, key: key, query: q, parent: parent, injector: injector, span: span, respCause: span}
	e.tasks[key] = t
	return t
}

// whole reports whether the key's range is the full namespace: the root
// task, whose parent is the injector.
func (k taskKey) whole() bool { return k.lo.IsZero() && k.hi == ids.MaxID }

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
// payload belonged to this engine.
func (e *Engine) HandleMessage(from simnet.Endpoint, payload any) bool {
	switch m := payload.(type) {
	case *startMsg:
		e.handleStart(m)
	case *rangeMsg:
		e.handleRange(m)
	case *rangeResp:
		e.handleResp(m)
	case *predictorMsg:
		if p, ok := e.waiting[m.QueryID]; ok {
			delete(e.waiting, m.QueryID)
			p.timer.Cancel()
			node := e.host.PastryNode()
			e.hPredLat.ObserveDuration(node.Sched().Now() - p.at)
			e.o.EmitSpan(m.Cause, obs.Event{Kind: obs.KindPredict, Query: e.o.QueryTag(m.QueryID),
				EP: int(node.Endpoint()), V: m.Pred.ExpectedTotal()})
			if p.cb != nil {
				p.cb(m.Pred)
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
	e.beginTask(m.QueryID, m.Query, ids.ID{}, ids.MaxID, m.Injector, m.Injector, m.Cause)
}

func (e *Engine) handleRange(m *rangeMsg) {
	e.beginTask(m.QueryID, m.Query, m.Lo, m.Hi, m.Parent, m.Injector, m.Cause)
}

// beginTask starts (or re-answers) the aggregation task for one range.
// cause is the span of the message (or local recursion) that requested
// the range.
func (e *Engine) beginTask(qid ids.ID, q *relq.Query, lo, hi ids.ID, parent, injector simnet.Endpoint, cause uint64) {
	node := e.host.PastryNode()
	// Expired tasks leave the table before it is consulted, so a hit below
	// is always inside its retention window.
	e.sweep(node.Sched().Now())
	key := taskKey{qid: qid, lo: lo, hi: hi}
	if t, ok := e.tasks[key]; ok {
		// Duplicate request (a reissue, or a new parent after the old one
		// died): remember the extra parent and re-answer if finished.
		t.addParent(parent)
		if t.finished {
			e.respond(t)
		}
		return
	}
	span := e.o.EmitSpan(cause, obs.Event{Kind: obs.KindDisseminate, Query: e.o.QueryTag(qid),
		EP: int(node.Endpoint())})
	e.host.QueryObserved(qid, q, injector, span)

	t := e.newTask(key, q, parent, injector, span)
	if lo == hi || e.aloneInRange(lo, hi) {
		// Leaf: contribute own rows (if in range) and predict on behalf of
		// every unavailable endsystem in the range.
		e.contributeLocal(&t.acc, qid, q, span, lo, hi)
		e.finish(t)
		return
	}

	// Split into arity equal subranges. The one containing self recurses
	// locally (no message); the rest are routed toward their midpoints.
	// RTT-scoped queries drop subranges whose coordinate bounding balls
	// prove no member lies within the radius: nothing in-scope is lost
	// (the ball test is exact), and the completeness predictor never
	// expects the pruned endsystems.
	subs := splitRange(lo, hi, e.cfg.Arity)
	if e.scoped(q) {
		kept := subs[:0]
		for _, s := range subs {
			if !e.cfg.Coords.RangeInScope(qid, s.lo, s.hi) {
				e.cPruned.Inc()
				continue
			}
			kept = append(kept, s)
		}
		subs = kept
	}
	// subs stays put from here on: the index and the timers point into it.
	t.subs, t.open = subs, int32(len(subs))
	self := node.ID()
	var selfSub *subrange
	for i := range subs {
		s := &subs[i]
		s.task, s.cause = t, t.span
		if self.InRange(s.lo, s.hi) {
			s.local = true
			selfSub = s
		}
		e.awaited[taskKey{qid: qid, lo: s.lo, hi: s.hi}] = s
	}
	for i := range subs {
		if s := &subs[i]; !s.local {
			e.sendSubrange(s)
		}
	}
	if selfSub != nil {
		// Local recursion: handle the self subrange as a child task whose
		// parent is this node itself; its response arrives synchronously
		// through handleResp.
		e.beginTask(qid, q, selfSub.lo, selfSub.hi, node.Endpoint(), injector, t.span)
	}
	if len(subs) == 0 {
		// Degenerate: nothing to wait for (every subrange was pruned by
		// the RTT scope; the split itself never comes back empty).
		e.contributeLocal(&t.acc, qid, q, span, lo, hi)
		e.finish(t)
	}
}

// aloneInRange reports whether, per the local leafset, this node is the
// only live endsystem in [lo, hi] (or the range holds no live endsystem at
// all). Leafsets are the authoritative neighborhood view: if the nearest
// live neighbors on both sides lie outside the range, no other live node
// can be inside it.
func (e *Engine) aloneInRange(lo, hi ids.ID) bool {
	for _, m := range e.host.PastryNode().LeafsetView() {
		if m.ID.InRange(lo, hi) {
			return false
		}
	}
	return true
}

// contributeLocal adds to acc this node's own predictor (when in range)
// and the metadata-derived predictors of unavailable endsystems in the
// range. span is the range task's disseminate event.
func (e *Engine) contributeLocal(acc *predictor.Predictor, qid ids.ID, q *relq.Query, span uint64, lo, hi ids.ID) {
	node := e.host.PastryNode()
	now := node.Sched().Now()
	scoped := e.scoped(q)
	if node.ID().InRange(lo, hi) &&
		(!scoped || e.cfg.Coords.InScope(qid, node.Endpoint())) {
		acc.AddImmediate(e.host.EstimateOwnRows(q))
	}
	nowSecs := int64(now / time.Second)
	for _, rec := range e.host.UnavailableInRange(lo, hi) {
		if rec.Summary == nil || rec.Model == nil {
			continue
		}
		if scoped && !e.cfg.Coords.InScopeID(qid, rec.Subject) {
			continue // the unavailable endsystem is outside the RTT scope
		}
		rows := rec.Summary.EstimateRows(q, nowSecs)
		if rows <= 0 {
			continue
		}
		e.cOnBehalf.Inc()
		if e.o.Detail() {
			e.o.EmitSpanDetail(span, obs.Event{Kind: obs.KindOnBehalf, Query: e.o.QueryTag(qid),
				EP: int(node.Endpoint()), V: rows})
		}
		acc.AddModel(rec.Model, now, rec.DownSince, rows)
	}
}

// sendSubrange routes the request for one subrange toward its midpoint and
// arms the response timeout for the current attempt. Reissues retarget a
// random point inside the subrange instead of the midpoint: the midpoint
// always resolves to the same delegate, so when that delegate is dead or
// partitioned, every retry would sail into the same hole. A fresh target
// likely resolves to a different responsible node, which can then
// disseminate the subrange itself. Duplicate delegates are harmless — the
// parent counts the first response only, and endsystems deduplicate query
// execution — so route diversity costs at most some extra traffic on
// already-failing paths.
func (e *Engine) sendSubrange(s *subrange) {
	t := s.task
	node := e.host.PastryNode()
	msg := &rangeMsg{QueryID: t.key.qid, Query: t.query, Lo: s.lo, Hi: s.hi,
		Parent: node.Endpoint(), Injector: t.injector, Cause: s.cause}
	e.cRangeMsgs.Inc()
	// Arm the attempt state BEFORE routing: Route can deliver locally and
	// answer synchronously (a self-routed midpoint resolving to a leaf),
	// and the response path reads sentAt for the RTT sample and cancels
	// the timer.
	sched := node.Sched()
	s.sentAt = sched.Now()
	s.lastTimeout = e.attemptTimeout(int(s.retries), s.lastTimeout)
	s.timer = sched.After(s.lastTimeout, s.onTimeout)
	// Initial delegate: the id midpoint by default; with coordinates
	// attached, the lowest-predicted-RTT node this node already knows
	// inside the subrange (still an id-valid delegate — routing to its id
	// reaches it or, if it just died, the numerically closest live node,
	// exactly as the midpoint would). Reissues keep the random retarget:
	// route diversity around failures matters more than latency there.
	target := ids.Midpoint(s.lo, s.hi)
	if s.retries > 0 {
		target = ids.RandomInRange(e.rng, s.lo, s.hi)
	} else if e.cfg.Coords != nil {
		if ref, ok := e.nearestDelegate(s.lo, s.hi); ok {
			target = ref.ID
		}
	}
	node.Route(target, msg, rangeMsgSize(t.query), simnet.ClassQuery)
}

// nearestDelegate picks, among the nodes this endsystem's own routing
// state knows inside [lo, hi], the one with the lowest predicted RTT.
// Candidates arrive sorted by id and the comparison is strict, so the
// choice is deterministic (ties go to the smaller id). ok is false when nothing in range is known locally.
func (e *Engine) nearestDelegate(lo, hi ids.ID) (pastry.NodeRef, bool) {
	node := e.host.PastryNode()
	e.cands = node.AppendKnownInRange(e.cands[:0], lo, hi)
	self := node.Endpoint()
	var best pastry.NodeRef
	var bestRTT time.Duration
	found := false
	for _, c := range e.cands {
		if c.EP == self {
			continue
		}
		rtt := e.cfg.Coords.PredictRTT(self, c.EP)
		if !found || rtt < bestRTT {
			best, bestRTT, found = c, rtt, true
		}
	}
	return best, found
}

// attemptTimeout returns the response timeout for an attempt (attempt 0 is
// the initial send). The initial timeout adapts to observed response
// latency — srtt + 4·rttvar, clamped to [minTimeout, responseTimeout] —
// and reissues back off exponentially with jitter (uniform in
// [2·previous, 3·previous], capped at backoffCap): the factor-2 lower
// bound guarantees the retry window at least doubles every attempt, so a
// bounded retry budget provably spans multi-minute outages, while the
// jitter band decorrelates simultaneous reissues instead of letting them
// thunder in lockstep. The adaptive floor never drops a timeout below the
// observed response latency. DisableBackoff reverts to the fixed
// responseTimeout (ablation only).
func (e *Engine) attemptTimeout(attempt int, prev time.Duration) time.Duration {
	base := responseTimeout
	if e.cfg.DisableBackoff {
		return base
	}
	floor := e.rtoFloor()
	initial := base
	if floor > 0 && floor < initial {
		initial = floor
	}
	if initial < minTimeout {
		initial = minTimeout
	}
	if attempt == 0 {
		return initial
	}
	lo, hi := 2*float64(prev), 3*float64(prev)
	if min := float64(initial); lo < min {
		lo = min
	}
	if hi < lo {
		hi = lo
	}
	d := time.Duration(lo + e.rng.Float64()*(hi-lo))
	if d > backoffCap {
		d = backoffCap
	}
	if floor > 0 && d < floor {
		d = floor
	}
	return d
}

// rtoFloor returns the RTT-aware timeout floor (0 before any sample).
func (e *Engine) rtoFloor() time.Duration {
	if e.srtt <= 0 {
		return 0
	}
	return e.srtt + 4*e.rttvar
}

// observeRTT folds one subrange response latency into the smoothed
// estimators (Jacobson/Karels gains: 1/8 for srtt, 1/4 for rttvar).
func (e *Engine) observeRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt, e.rttvar = sample, sample/2
		return
	}
	delta := sample - e.srtt
	if delta < 0 {
		delta = -delta
	}
	e.rttvar += (delta - e.rttvar) / 4
	e.srtt += (sample - e.srtt) / 8
}

// rangeFraction returns the fraction of the 128-bit identifier namespace
// the inclusive range [lo, hi] covers.
func rangeFraction(lo, hi ids.ID) float64 {
	const two64 = 18446744073709551616.0 // 2^64
	span := hi.Sub(lo)
	return float64(span.Hi)/two64 + float64(span.Lo)/(two64*two64)
}

// subrangeTimeout reissues an unanswered subrange request, or gives up
// after MaxRetries (the contribution is then missing from the predictor —
// the paper's "with high probability" caveat — and, worse, endsystems in
// the subrange never observe the query; the giveup event makes that loss
// visible and attributable).
func (e *Engine) subrangeTimeout(s *subrange) {
	t := s.task
	node := e.host.PastryNode()
	if s.done || t.finished || !node.Alive() {
		return
	}
	tag := e.o.QueryTag(t.key.qid)
	if int(s.retries) >= e.cfg.MaxRetries {
		e.settle(s)
		e.cAbandoned.Inc()
		s.cause = e.o.EmitSpan(s.cause, obs.Event{Kind: obs.KindDissemAbandon, Query: tag,
			EP: int(node.Endpoint()), N: int64(s.retries)})
		e.cGiveups.Inc()
		e.o.EmitSpan(s.cause, obs.Event{Kind: obs.KindDissemGiveup, Query: tag,
			EP: int(node.Endpoint()), N: int64(s.retries),
			V: rangeFraction(s.lo, s.hi)})
		if t.open == 0 {
			e.finish(t)
		}
		return
	}
	s.retries++
	e.cReissues.Inc()
	s.cause = e.o.EmitSpan(s.cause, obs.Event{Kind: obs.KindDissemRetry, Query: tag,
		EP: int(node.Endpoint()), N: int64(s.retries)})
	e.sendSubrange(s)
}

// settle marks a subrange answered or abandoned and takes it out of the
// index. The removal is by identity: a subrange of a task from before a
// Reset must not unhook the same range awaited by a newer task.
func (e *Engine) settle(s *subrange) {
	s.done = true
	s.task.open--
	key := taskKey{qid: s.task.key.qid, lo: s.lo, hi: s.hi}
	if e.awaited[key] == s {
		delete(e.awaited, key)
	}
}

// handleResp folds a child's aggregated predictor into the parent task.
// The index holds a subrange only while it is unanswered and its task
// unfinished, so a duplicate response (from a reissued request), a late
// one (its subrange abandoned, its task finished) and one this incarnation
// never asked for all miss it: each subrange counts exactly once.
func (e *Engine) handleResp(m *rangeResp) {
	s := e.awaited[taskKey{qid: m.QueryID, lo: m.Lo, hi: m.Hi}]
	if s == nil {
		return
	}
	t := s.task
	e.settle(s)
	s.timer.Cancel()
	if s.retries == 0 && !s.local {
		// Karn's rule: only unretried responses are unambiguous latency
		// samples.
		e.observeRTT(e.host.PastryNode().Sched().Now() - s.sentAt)
	}
	t.acc.Merge(m.Pred)
	// The response that completes the fan-in is the task's critical
	// child; its span becomes the causal parent of this task's own
	// response.
	if m.Cause != 0 {
		t.respCause = m.Cause
	}
	if t.open == 0 {
		e.finish(t)
	}
}

// finish is the one way a task ends — leaf, interior or degenerate. It
// freezes acc, answers every parent, and starts the retention window:
// the task stays in the table, to re-answer reissued requests from the
// frozen acc, until sweep lets it go. No timer is armed. A task of a
// previous incarnation (see Reset) answers its parents and is otherwise
// left alone: it is in no table.
func (e *Engine) finish(t *task) {
	t.finished = true
	t.subs = nil // all settled; nothing points into the array any more
	if e.tasks[t.key] == t {
		t.expires = e.host.PastryNode().Sched().Now() + retention
		if e.retiredTail == nil {
			e.retired = t
		} else {
			e.retiredTail.next = t
		}
		e.retiredTail = t
	}
	e.respond(t)
}

// sweep drops the finished tasks whose retention has run out. beginTask
// calls it before every lookup, so expiry needs no timer: an expired task
// is never found, and the table is trimmed at the rate it is filled. The
// delete is by identity, like every removal from the engine's tables.
func (e *Engine) sweep(now time.Duration) {
	for t := e.retired; t != nil && t.expires <= now; t = e.retired {
		// Unlink fully: a response in flight may keep t alive through its
		// predictor, and must not keep the rest of the queue with it.
		e.retired, t.next = t.next, nil
		if e.tasks[t.key] == t {
			delete(e.tasks, t.key)
		}
	}
	if e.retired == nil {
		e.retiredTail = nil
	}
}

// respond sends a finished task's aggregated predictor to its parents: a
// rangeResp for interior tasks, or the final predictorMsg when the parent
// is the injector (full-namespace task). Parents deduplicate per
// subrange, so answering every registered parent preserves exactly-once
// counting. The messages share the task's frozen acc; receivers only
// read it.
func (e *Engine) respond(t *task) {
	e.respondTo(t, t.parent)
	for p := t.more; p != nil; p = p.next {
		e.respondTo(t, p.ep)
	}
}

func (e *Engine) respondTo(t *task, parent simnet.Endpoint) {
	node := e.host.PastryNode()
	if !t.key.whole() && parent == node.Endpoint() {
		// Self-recursion: deliver locally without a network hop.
		e.handleResp(&rangeResp{QueryID: t.key.qid, Lo: t.key.lo, Hi: t.key.hi, Pred: &t.acc, Cause: t.respCause})
		return
	}
	// The wire carries the frozen acc's encoding, sized here rather than
	// kept on the task.
	predLen := t.acc.EncodedLen()
	e.cResps.Inc()
	if predLen == 1 {
		e.cRespEmpty.Inc()
	}
	e.cPredBytes.Add(uint64(predLen))
	net := node.Ring().Network()
	if t.key.whole() {
		// Root task: deliver the final predictor to the injector.
		net.Send(node.Endpoint(), parent, predictorMsgSize(predLen), simnet.ClassQuery,
			&predictorMsg{QueryID: t.key.qid, Pred: &t.acc, Cause: t.respCause})
		return
	}
	net.Send(node.Endpoint(), parent, rangeRespSize(predLen), simnet.ClassQuery,
		&rangeResp{QueryID: t.key.qid, Lo: t.key.lo, Hi: t.key.hi, Pred: &t.acc, Cause: t.respCause})
}

// splitRange divides the inclusive range [lo, hi] into up to arity
// contiguous, non-overlapping, equal-width inclusive subranges covering it
// exactly.
func splitRange(lo, hi ids.ID, arity int) []subrange {
	out := make([]subrange, 0, arity)
	span := hi.Sub(lo)
	width := divByUint(span, uint64(arity))
	cur := lo
	for i := 0; i < arity; i++ {
		var end ids.ID
		if i == arity-1 {
			end = hi
		} else {
			end = cur.Add(width)
		}
		if end.Less(cur) { // overflow guard
			end = hi
		}
		out = append(out, subrange{lo: cur, hi: end})
		if end == hi {
			break
		}
		cur = end.AddUint64(1)
	}
	return out
}

// divByUint divides a 128-bit value by a small unsigned integer.
func divByUint(v ids.ID, by uint64) ids.ID {
	hi := v.Hi / by
	rem := v.Hi % by
	// Combine remainder with low word: (rem * 2^64 + v.Lo) / by, done in
	// two 64-bit steps to avoid overflow (rem < by <= 2^32 assumed).
	lo := rem<<32 | v.Lo>>32
	q1 := lo / by
	r1 := lo % by
	lo2 := r1<<32 | v.Lo&0xffffffff
	q2 := lo2 / by
	return ids.ID{Hi: hi, Lo: q1<<32 | q2}
}
