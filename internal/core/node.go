// Package core assembles the Seaweed endsystem from its substrates — the
// Pastry overlay, the local relational engine and its data summaries, the
// availability model, the metadata replication service, the query
// dissemination engine and the result aggregation trees — and provides the
// two simulation harnesses the paper's evaluation uses: the packet-level
// cluster simulation (Figures 9 and 10) and the availability-level
// completeness simulation (Figures 5–8).
//
// Per query a Node itself keeps only a timer for a standing query and a
// sink at the injector; what the query is, whether it has run in this
// uptime session, what was last submitted for it and where, is the
// aggregation engine's record (aggtree.Engine).
package core

import (
	"time"

	"repro/internal/agg"
	"repro/internal/aggtree"
	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/dissem"
	"repro/internal/ids"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// Node is one Seaweed endsystem.
type Node struct {
	pn      *pastry.Node
	tables  map[string]*relq.Table
	summary *relq.Summary
	model   *avail.Model
	meta    *metadata.Service
	dis     *dissem.Engine
	tree    *aggtree.Engine

	downAt   time.Duration // when the endsystem last went down
	everDown bool

	// resultSinks receives incremental results for queries injected here;
	// the third argument is the delivering partial event's span.
	resultSinks map[ids.ID]func(agg.Partial, int64, uint64)
	// prevLeaf is the leafset membership at the last LeafsetChanged
	// upcall, for detecting additions (see pullFromNewNeighbors).
	prevLeaf map[simnet.Endpoint]bool

	// Live data feed (optional): new rows appended while the endsystem is
	// up, with the summary rebuilt and re-replicated when data changed.
	feed       *anemone.Streamer
	feedDS     *anemone.Dataset
	feedPeriod time.Duration
	feedTimer  simnet.Timer

	contTimers map[ids.ID]simnet.Timer
}

// continuousPeriod is how often standing (Continuous) queries re-execute
// locally while the endsystem is up.
const continuousPeriod = 15 * time.Minute

// NodeConfig bundles the per-subsystem configurations of a Seaweed node.
type NodeConfig struct {
	Meta   metadata.Config
	Dissem dissem.Config
	Agg    aggtree.Config
	Seed   int64
}

// DefaultNodeConfig returns the paper's Seaweed configuration: k=8
// metadata replicas, 16-ary dissemination, m=3 vertex backups.
func DefaultNodeConfig(seed int64) NodeConfig {
	return NodeConfig{
		Meta:   metadata.DefaultConfig(),
		Dissem: dissem.DefaultConfig(),
		Agg:    aggtree.DefaultConfig(),
		Seed:   seed,
	}
}

// NewNode creates a Seaweed endsystem on the ring at the given endpoint.
// tables is the endsystem's local horizontal partition and summary its
// data summary (relq.NewSummary over tables); model is its (possibly
// empty) availability model, updated online as the node cycles.
func NewNode(ring *pastry.Ring, ep simnet.Endpoint, id ids.ID,
	tables []*relq.Table, summary *relq.Summary, model *avail.Model, cfg NodeConfig) *Node {
	n := &Node{
		tables:      make(map[string]*relq.Table, len(tables)),
		summary:     summary,
		model:       model,
		resultSinks: make(map[ids.ID]func(agg.Partial, int64, uint64)),
		prevLeaf:    make(map[simnet.Endpoint]bool),
		contTimers:  make(map[ids.ID]simnet.Timer),
	}
	// Every endsystem table shares the cluster-wide executor counters
	// (rows_scanned / rows_matched / blocks_pruned plus plan-cache hit
	// rates); counter updates are atomic and order-independent, so the
	// totals do not depend on execution order.
	execStats := relq.StandardExecStats(ring.Obs())
	for _, t := range tables {
		t.SetExecStats(execStats)
		n.tables[t.Schema().Name] = t
	}
	n.pn = ring.AddNode(ep, id, n)
	// A second split keeps the metadata stream independent of the node's
	// other RNG consumers (cfg.Seed is already SplitSeed-derived per node).
	n.meta = metadata.NewService(n.pn, cfg.Meta, runner.SplitSeed(cfg.Seed, int64(ep)))
	n.meta.SetLocalMetadata(n.summary, n.model)
	disCfg := cfg.Dissem
	if disCfg.Seed == 0 {
		// A negative stream cannot collide with the per-endpoint streams
		// the metadata service draws from the same node seed.
		disCfg.Seed = runner.SplitSeed(cfg.Seed, -2)
	}
	n.dis = dissem.NewEngine(n, disCfg)
	n.tree = aggtree.NewEngine(n, cfg.Agg)
	n.pn.OnReady = n.onReady
	return n
}

// PastryNode implements dissem.Host and aggtree.Host.
func (n *Node) PastryNode() *pastry.Node { return n.pn }

// Summary returns the node's data summary.
func (n *Node) Summary() *relq.Summary { return n.summary }

// Model returns the node's availability model.
func (n *Node) Model() *avail.Model { return n.model }

// Meta exposes the metadata service (for tests and experiments).
func (n *Node) Meta() *metadata.Service { return n.meta }

// Alive reports whether the endsystem is up.
func (n *Node) Alive() bool { return n.pn.Alive() }

// TreeEntryVertex returns the aggregation-tree vertex this endsystem
// persisted as its entry point for qid, if it has submitted (for
// experiments scoring entry-edge quality).
func (n *Node) TreeEntryVertex(qid ids.ID) (ids.ID, bool) {
	return n.tree.EntryVertex(qid)
}

// now returns the current virtual time.
func (n *Node) now() time.Duration { return n.pn.Sched().Now() }

// nowSeconds returns the current virtual time in whole seconds, the clock
// queries see.
func (n *Node) nowSeconds() int64 { return int64(n.now() / time.Second) }

// EstimateOwnRows implements dissem.Host: the local DBMS's histogram-based
// row-count estimate.
func (n *Node) EstimateOwnRows(q *relq.Query) float64 {
	return n.summary.EstimateRows(q, n.nowSeconds())
}

// UnavailableInRange implements dissem.Host.
func (n *Node) UnavailableInRange(lo, hi ids.ID) []*metadata.Record {
	return n.meta.UnavailableInRange(lo, hi)
}

// QueryObserved implements dissem.Host: execute the query locally and
// submit the result into the aggregation tree. The engine calls it for
// every range task it begins; executeAndSubmit deduplicates.
func (n *Node) QueryObserved(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) {
	n.executeAndSubmit(qid, q, injector, cause, obs.KindExec)
}

// executeAndSubmit registers a query with the aggregation tree, runs it
// against the local tables and submits the partial result — once per
// uptime session, and never once the query is canceled here (the tree's
// ClaimExecution is the guard, whether the query arrives by dissemination,
// however many range requests carry it, or in a neighbor's active-query
// list). Continuous queries additionally arm a periodic local
// re-execution that resubmits whenever the local result changes — the
// §3.4 continuous-query extension, riding the aggregation tree's versioned
// exactly-once replacement. kind distinguishes the normal dissemination
// path (KindExec) from the rejoin query-list handoff (KindAvailExec),
// whose parent edge measures the availability wait.
func (n *Node) executeAndSubmit(qid ids.ID, q *relq.Query, injector simnet.Endpoint,
	cause uint64, kind obs.Kind) {
	if !n.tree.ClaimExecution(qid, q, injector, cause) {
		return
	}
	if q.RTTScope > 0 {
		// RTT-scoped query: endsystems outside the frozen scope observe the
		// query (dedup state above) but neither execute nor submit. The
		// completeness predictor skipped them too, so the scoped result
		// still converges to 100%.
		if sp := n.pn.Ring().Coords(); sp != nil && !sp.InScope(qid, n.pn.Endpoint()) {
			return
		}
	}
	o := n.pn.Ring().Obs()
	span := o.EmitSpan(cause, obs.Event{Kind: kind, Query: o.QueryTag(qid),
		EP: int(n.pn.Endpoint())})
	if !n.runLocal(qid, q, injector, span) {
		return
	}
	if q.Continuous {
		sched := n.pn.Sched()
		var timer simnet.Timer
		timer = sched.Every(continuousPeriod, func() {
			if !n.tree.IsActive(qid) {
				timer.Cancel()
				delete(n.contTimers, qid)
				return
			}
			if n.pn.Alive() {
				n.runLocal(qid, q, injector, span)
			}
		})
		n.contTimers[qid] = timer
	}
}

// runLocal executes the query against local data and submits the result
// (the tree sends it on only if it differs from the last one submitted in
// this uptime session, so continuous re-execution resubmits on change). It
// reports whether the table existed and execution succeeded. Table.Execute
// goes through the per-table bound-plan cache: the query object is
// pointer-stable per qid on this node, so continuous re-executions and
// rejoin replays skip parse/bind entirely.
func (n *Node) runLocal(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) bool {
	tbl, ok := n.tables[q.Table]
	if !ok {
		return false
	}
	part, err := tbl.Execute(q, n.nowSeconds())
	if err != nil {
		return false
	}
	n.tree.Submit(qid, part, q, injector, cause)
	return true
}

// ResultDelivered implements aggtree.Host: route incremental results for
// queries injected at this endsystem to their sinks.
func (n *Node) ResultDelivered(qid ids.ID, part agg.Partial, contributors int64, span uint64) {
	if sink, ok := n.resultSinks[qid]; ok {
		sink(part, contributors, span)
	}
}

// CancelQuery explicitly cancels a query injected at this endsystem: the
// local tree state is dropped, incremental results stop being delivered,
// and the cancellation is broadcast down the aggregation tree so remote
// vertex replica groups reclaim their state immediately instead of
// waiting out the TTL (which remains the backstop for endsystems the
// broadcast misses).
func (n *Node) CancelQuery(qid ids.ID) {
	n.tree.CancelPropagate(qid)
	delete(n.resultSinks, qid)
	if t, ok := n.contTimers[qid]; ok {
		t.Cancel()
		delete(n.contTimers, qid)
	}
}

// InjectQuery submits a query at this endsystem. NOW() is bound to the
// local clock before dissemination. cause is the span of the causally
// preceding event (the query service's started event; 0 when none).
// onPredictor is called once when the aggregated completeness predictor
// arrives; onResult on every incremental result update, with the
// delivering partial event's span. The returned queryId identifies the
// query systemwide.
func (n *Node) InjectQuery(q *relq.Query, cause uint64,
	onPredictor func(*predictor.Predictor),
	onResult func(agg.Partial, int64, uint64)) ids.ID {
	bound := q.BindNow(n.nowSeconds())
	qid := n.dis.Inject(bound, cause, onPredictor)
	if onResult != nil {
		n.resultSinks[qid] = onResult
	}
	return qid
}

// Deliver implements pastry.Application, dispatching protocol messages to
// the subsystem they belong to.
func (n *Node) Deliver(key ids.ID, from simnet.Endpoint, payload any) {
	if n.dis.HandleMessage(from, payload) {
		return
	}
	if n.tree.HandleMessage(from, payload) {
		return
	}
	if n.meta.HandleMessage(payload) {
		return
	}
	switch m := payload.(type) {
	case *queryListPull:
		n.handleQueryListPull(m)
	case *queryListPush:
		n.handleQueryListPush(m)
	}
}

// LeafsetChanged implements pastry.Application.
func (n *Node) LeafsetChanged() {
	n.meta.HandleLeafsetChanged()
	n.tree.HandleLeafsetChanged()
	n.pullFromNewNeighbors()
}

// pullFromNewNeighbors extends the joiner's active-query handoff to
// leafset additions: when a previously unreachable member (re)appears —
// a healed partition being the important case, where neither side ever
// restarted and so never ran the join-time pull — both sides ask their
// new neighbors for the active query list, letting endsystems that
// missed a dissemination while cut off contribute their rows after all.
func (n *Node) pullFromNewNeighbors() {
	if !n.pn.Alive() {
		return
	}
	leaf := n.pn.Leafset()
	sent := 0
	for _, m := range leaf {
		if !n.prevLeaf[m.EP] && sent < 3 {
			n.pn.Ring().Network().Send(n.pn.Endpoint(), m.EP, ids.Bytes+8,
				simnet.ClassQuery, &queryListPull{From: n.pn.Endpoint()})
			sent++
		}
	}
	next := make(map[simnet.Endpoint]bool, len(leaf))
	for _, m := range leaf {
		next[m.EP] = true
	}
	n.prevLeaf = next
}

// GoUp brings the endsystem online (a trace up-transition): the
// availability model learns the completed downtime, protocol state is
// reset (fresh incarnation), and the overlay join runs; onReady then
// reactivates the services and pulls active queries from a neighbor.
func (n *Node) GoUp() {
	if n.pn.Alive() {
		return
	}
	now := n.now()
	if n.everDown {
		n.model.ObserveUpEvent(now, now-n.downAt)
		// The model changed: the next metadata push carries it.
		n.meta.SetLocalMetadata(n.summary, n.model)
	}
	n.dis.Reset()
	n.tree.Reset()
	for _, t := range n.contTimers {
		t.Cancel()
	}
	n.contTimers = make(map[ids.ID]simnet.Timer)
	// resultSinks survive the restart: the querying user re-attaches when
	// their endsystem returns, and the root vertex keeps sending
	// incremental results to the injector endpoint.
	n.pn.Start()
}

// EnableFeed attaches a live data feed: while the endsystem is up, the
// streamer appends new rows every period, and the data summary is rebuilt
// and re-replicated when data changed — lifting the data-updates
// restriction the paper's own simulator had, and exercising §3.2.2's
// "push ... if there is any change" semantics for real.
func (n *Node) EnableFeed(st *anemone.Streamer, ds *anemone.Dataset, period time.Duration) {
	n.feed = st
	n.feedDS = ds
	n.feedPeriod = period
}

// feedTick appends the rows generated since the last tick and refreshes
// the metadata when the data changed.
func (n *Node) feedTick() {
	if !n.pn.Alive() || n.feed == nil {
		return
	}
	added := n.feed.AppendTo(n.feedDS, n.now())
	if added == 0 {
		return
	}
	n.summary = relq.NewSummary(n.feedDS.Tables()...)
	n.meta.SetLocalMetadata(n.summary, n.model)
}

// startFeed arms the feed timer for this uptime session. The streamer's
// cursor skips the offline gap first: data not generated while the
// endsystem was down does not exist ("only available systems generate
// data", §4.2).
func (n *Node) startFeed() {
	if n.feed == nil || n.feedPeriod <= 0 {
		return
	}
	n.feed.SkipTo(n.now())
	n.feedTimer = n.pn.Sched().Every(n.feedPeriod, n.feedTick)
}

// onReady runs when the overlay join completes.
func (n *Node) onReady() {
	n.meta.Activate()
	n.startFeed()
	// Ask a few leafset neighbors for the list of currently active
	// queries, so this endsystem's data joins results that are already in
	// flight ("any new or previously unavailable endsystem that joins
	// Seaweed receives a list of currently active queries"). Asking three
	// keeps the handoff reliable under heavy churn, when a single
	// neighbor may itself have just joined.
	leaf := n.pn.Leafset()
	for i := 0; i < 3 && i < len(leaf); i++ {
		n.pn.Ring().Network().Send(n.pn.Endpoint(), leaf[i].EP, ids.Bytes+8,
			simnet.ClassQuery, &queryListPull{From: n.pn.Endpoint()})
	}
}

// GoDown takes the endsystem offline (a trace down-transition). The data
// feed stops: only available endsystems generate data (the model
// assumption of §4.2).
func (n *Node) GoDown() {
	if !n.pn.Alive() {
		return
	}
	n.downAt = n.now()
	n.everDown = true
	if n.feedTimer != (simnet.Timer{}) {
		// Flush the rows produced since the last tick, then stop.
		n.feedTick()
		n.feedTimer.Cancel()
		n.feedTimer = simnet.Timer{}
	}
	for _, t := range n.contTimers {
		t.Cancel()
	}
	n.contTimers = make(map[ids.ID]simnet.Timer)
	n.meta.Deactivate()
	n.pn.Stop()
}

// queryListPull asks a neighbor for the active query list.
type queryListPull struct {
	From simnet.Endpoint
}

// queryListPush answers with the active queries in queryId order, each
// with its injector and the span under which the sender learned of it, so
// the receiver's avail_exec event chains onto the original dissemination
// — the edge between them is the availability wait.
type queryListPush struct {
	Queries []aggtree.ActiveQuery
}

func (n *Node) handleQueryListPull(m *queryListPull) {
	qs := n.tree.ActiveQueries()
	if len(qs) == 0 {
		return
	}
	size := 8
	for _, a := range qs {
		size += ids.Bytes + len(a.Query.Raw) + 8
	}
	n.pn.Ring().Network().Send(n.pn.Endpoint(), m.From, size, simnet.ClassQuery,
		&queryListPush{Queries: qs})
}

func (n *Node) handleQueryListPush(m *queryListPush) {
	for _, a := range m.Queries {
		n.executeAndSubmit(a.ID, a.Query, a.Injector, a.Cause, obs.KindAvailExec)
	}
}
