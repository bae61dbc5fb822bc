package core

import (
	"math/rand"
	"time"

	"repro/internal/agg"
	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// ClusterConfig parameterizes a packet-level Seaweed simulation: N
// endsystems with Anemone data, availability driven by a trace, Pastry
// over a router topology, and the full Seaweed protocol stack.
type ClusterConfig struct {
	Trace    *avail.Trace
	Workload anemone.Config
	Net      simnet.NetworkConfig
	Pastry   pastry.Config
	Node     NodeConfig
	Seed     int64
	// Feed, when enabled, switches the cluster to live data updates:
	// endsystems start empty and accrue rows while up, rebuilding and
	// re-replicating their summaries as data changes. (The paper's own
	// simulator pre-computed all data and could not support updates; this
	// lifts that restriction.)
	Feed FeedConfig
	// Obs is the observability layer for this run; nil creates a fresh
	// metrics-only layer (metrics are on by default). Supply one to share a
	// registry across runs or to attach a tracer.
	Obs *obs.Obs
	// Coords configures the Vivaldi network-coordinate subsystem
	// (internal/coords): per-endsystem coordinates maintained from RTT
	// samples on existing protocol traffic, latency-biased delegate and
	// aggregation-entry selection, and RTT-scoped queries
	// (relq.Query.RTTScope). Disabled by default; the id-only baseline is
	// byte-identical to before the subsystem existed.
	Coords coords.Config
}

// FeedConfig parameterizes live data updates.
type FeedConfig struct {
	Enabled bool
	// Period is how often an up endsystem appends the rows it generated
	// (and refreshes its metadata if anything changed). Default 15 min.
	Period time.Duration
}

// DefaultClusterConfig builds the paper's packet-level setup for a given
// trace: CorpNet-like topology, MSPastry parameters (b=4, l=8, 30 s
// heartbeats), k=8 metadata replicas, m=3 vertex backups, and a light
// Anemone workload (the queries' constant-size result messages make
// bandwidth results insensitive to the per-endsystem row count).
func DefaultClusterConfig(trace *avail.Trace, seed int64) ClusterConfig {
	w := anemone.DefaultConfig(trace.Horizon, seed)
	w.MeanFlowsPerDay = 200
	net := simnet.DefaultNetworkConfig()
	net.Horizon = trace.Horizon
	net.Seed = seed
	p := pastry.DefaultConfig()
	p.Seed = seed
	return ClusterConfig{
		Trace:    trace,
		Workload: w,
		Net:      net,
		Pastry:   p,
		Node:     DefaultNodeConfig(seed),
		Seed:     seed,
	}
}

// samplePeriod is the virtual-time period of an attached time-series
// sampler (obs.SetSampler). A minute puts 15 samples inside the spike
// workload's 15-minute burst, while a workload's 15 virtual hours still
// write under a thousand lines.
const samplePeriod = time.Minute

// Cluster is a running packet-level Seaweed simulation.
type Cluster struct {
	Sched *simnet.Wheel
	Net   *simnet.Network
	Ring  *pastry.Ring
	Nodes []*Node
	cfg   ClusterConfig
	space *coords.Space // nil unless cfg.Coords.Enabled

	cSchedEvents *obs.Counter // sched_events: scheduler events executed
	seenEvents   uint64       // events already accounted to cSchedEvents
}

// NewCluster builds the cluster: endsystem data, overlay nodes, the t=0
// bootstrap of the initially-available population, and the scheduled
// up/down transitions for the whole trace horizon. One wheel drives the
// whole simulation.
func NewCluster(cfg ClusterConfig) *Cluster {
	n := cfg.Trace.NumEndsystems()
	topo := simnet.GenerateTopology(simnet.DefaultTopologyConfig(), cfg.Seed)
	sched := simnet.NewWheel()
	net := simnet.NewNetwork(sched, topo, n, cfg.Net)
	// Attach observability before the protocol layers are built: they cache
	// their metric handles at construction time.
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	o.BindClock(sched.Now)
	net.SetObs(o)
	ring := pastry.NewRing(net, cfg.Pastry)
	c := &Cluster{Sched: sched, Net: net, Ring: ring, Nodes: make([]*Node, n), cfg: cfg,
		cSchedEvents: o.Counter("sched_events")}

	// Virtual-time telemetry: when a sampler is attached to the obs layer,
	// snapshot the load signals every samplePeriod.
	if sw := o.Sampler(); sw != nil {
		var lastT time.Duration
		var lastEvents uint64
		sched.Every(samplePeriod, func() {
			now := sched.Now()
			exec := sched.Executed()
			perSec := 0.0
			if dt := now - lastT; dt > 0 {
				perSec = float64(exec-lastEvents) / dt.Seconds()
			}
			sw.Write(o.Snapshot(now, ring.NumLive(), sched.Pending(), exec, perSec))
			lastT, lastEvents = now, exec
		})
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	idList := ids.RandomN(rng, n)
	if cfg.Coords.Enabled {
		// Build the coordinate space before the nodes: every engine caches
		// the handle at construction. The id assignment feeds the
		// RTT-scope index.
		c.space = coords.NewSpace(net, cfg.Coords)
		c.space.SetIDs(idList)
		ring.SetCoords(c.space)
	}
	feedPeriod := cfg.Feed.Period
	if feedPeriod <= 0 {
		feedPeriod = 15 * time.Minute
	}
	// An endsystem's dataset and summary are a pure function of
	// (cfg.Workload, i) and share nothing with another endsystem's, so they
	// are built on every core; the nodes are then wired one by one in
	// endpoint order, as if the build had been sequential.
	type endsystemData struct {
		ds      *anemone.Dataset
		summary *relq.Summary
	}
	data := runner.Run(runner.Config{}, n, func(i int) endsystemData {
		var ds *anemone.Dataset
		if cfg.Feed.Enabled {
			// Live updates: start with an empty dataset; rows accrue
			// while the endsystem is up.
			ds = &anemone.Dataset{Flow: relq.NewTable(anemone.FlowSchema())}
		} else {
			ds = anemone.Generate(cfg.Workload, i)
		}
		return endsystemData{ds, ds.Summary()}
	})
	var bootstrap []simnet.Endpoint
	for i, d := range data {
		nodeCfg := cfg.Node
		// SplitSeed, not an xor mix: sweeps run clusters at sequential
		// seeds, and cfg.Seed ^ i<<1 made (seed 0, node 1) and (seed 2,
		// node 0) share RNG state across runs.
		nodeCfg.Seed = runner.SplitSeed(cfg.Seed, int64(i))
		nodeCfg.Dissem.Coords = c.space
		nodeCfg.Agg.Coords = c.space
		c.Nodes[i] = NewNode(ring, simnet.Endpoint(i), idList[i], d.ds.Tables(),
			d.summary, &avail.Model{}, nodeCfg)
		if cfg.Feed.Enabled {
			c.Nodes[i].EnableFeed(anemone.NewStreamer(cfg.Workload, i), d.ds, feedPeriod)
		}
		if cfg.Trace.Profiles[i].AvailableAt(0) {
			bootstrap = append(bootstrap, simnet.Endpoint(i))
		}
	}
	// Each bootstrap node's onReady activates its metadata and feed.
	ring.BootstrapAll(bootstrap)

	for i := 0; i < n; i++ {
		node := c.Nodes[i]
		for _, tr := range cfg.Trace.Profiles[i].Transitions(0, cfg.Trace.Horizon) {
			if tr.Up {
				sched.At(tr.At, node.GoUp)
			} else {
				sched.At(tr.At, node.GoDown)
			}
		}
	}
	return c
}

// RunUntil advances the simulation to the given virtual time.
func (c *Cluster) RunUntil(t time.Duration) {
	c.Sched.RunUntil(t)
	// Surface engine throughput: the sched_events counter tracks the
	// scheduler's executed-event count so sweeps can report events/sec.
	if exec := c.Sched.Executed(); exec > c.seenEvents {
		c.cSchedEvents.Add(exec - c.seenEvents)
		c.seenEvents = exec
	}
}

// Obs returns the cluster's observability layer (nil when disabled).
func (c *Cluster) Obs() *obs.Obs { return c.Net.Obs() }

// QueryHandle tracks one injected query's outputs. Results is the
// virtual-time-ordered update log; OnUpdate (see stream.go) streams the
// same updates as they arrive, and WhenDone reports the end.
type QueryHandle struct {
	QueryID     ids.ID
	Injected    time.Duration
	Predictor   *predictor.Predictor
	PredictorAt time.Duration
	// Results holds every incremental result update observed at the
	// injector, in virtual-time order.
	Results []ResultUpdate

	// Completed reports that the result stream reached the predictor's
	// expected total (>= 99% of it); Cancelled that the query was
	// explicitly cancelled. Either makes the query terminal.
	Completed bool
	Cancelled bool

	callbacks []func(ResultUpdate)
	done      bool // terminal; finish has run
	onDone    []func()
	// lastSpan is the span of the most recent partial event delivered to
	// this injector (0 without tracing): the causal parent of the terminal
	// complete/cancel event.
	lastSpan uint64
}

// finish marks the handle terminal exactly once and fires the registered
// completion hooks.
func (h *QueryHandle) finish() {
	if h.done {
		return
	}
	h.done = true
	for _, fn := range h.onDone {
		fn()
	}
}

// WhenDone registers fn to run at the virtual instant the query becomes
// terminal (completed or cancelled), or immediately if it already is.
// Like OnUpdate callbacks, fn runs on the simulation goroutine.
func (h *QueryHandle) WhenDone(fn func()) {
	if h.done {
		fn()
		return
	}
	h.onDone = append(h.onDone, fn)
}

// ResultUpdate is one incremental result observation.
type ResultUpdate struct {
	At           time.Duration
	Partial      agg.Partial
	Contributors int64
}

// InjectContinuousQuery submits a standing query: every endsystem
// re-executes it periodically while up and replaces its contribution when
// the local result changes, so the handle's incremental results track the
// (possibly growing) data.
func (c *Cluster) InjectContinuousQuery(from simnet.Endpoint, q *relq.Query) *QueryHandle {
	cq := *q
	cq.Continuous = true
	return c.InjectQuery(from, &cq)
}

// InjectQuery submits a query at endsystem from (which must be up) and
// returns a handle that fills in as the simulation advances.
func (c *Cluster) InjectQuery(from simnet.Endpoint, q *relq.Query) *QueryHandle {
	return c.InjectQueryCause(from, q, 0)
}

// InjectQueryCause is InjectQuery with an explicit causal parent span:
// the query service (internal/qserve) passes its started event so the
// whole query tree chains back to admission. cause 0 starts a fresh
// causal tree.
func (c *Cluster) InjectQueryCause(from simnet.Endpoint, q *relq.Query, cause uint64) *QueryHandle {
	h := &QueryHandle{Injected: c.Sched.Now()}
	node := c.Nodes[from]
	o := c.Obs()
	var hit50, hit90, hit99 bool
	h.QueryID = node.InjectQuery(q, cause,
		func(p *predictor.Predictor) {
			h.Predictor = p
			h.PredictorAt = c.Sched.Now()
		},
		func(part agg.Partial, contributors int64, span uint64) {
			now := c.Sched.Now()
			h.deliver(ResultUpdate{
				At: now, Partial: part, Contributors: contributors,
			})
			if span != 0 {
				h.lastSpan = span
			}
			if len(h.Results) == 1 {
				o.DurationHistogram("query_time_to_first_result_ns").
					ObserveDuration(now - h.Injected)
			}
			// Time-to-X%-completeness, measured against the predictor's own
			// expected-total estimate (the denominator the user sees).
			if h.Predictor == nil {
				return
			}
			total := h.Predictor.ExpectedTotal()
			if total <= 0 {
				return
			}
			frac := float64(part.Count) / total
			if !hit50 && frac >= 0.50 {
				hit50 = true
				o.DurationHistogram("query_time_to_50pct_ns").ObserveDuration(now - h.Injected)
			}
			if !hit90 && frac >= 0.90 {
				hit90 = true
				o.DurationHistogram("query_time_to_90pct_ns").ObserveDuration(now - h.Injected)
			}
			if !hit99 && frac >= 0.99 {
				hit99 = true
				o.DurationHistogram("query_time_to_99pct_ns").ObserveDuration(now - h.Injected)
				// Reaching the predicted total is completion: the user got
				// everything the predictor promised. The complete event chains
				// onto the partial that crossed the threshold, closing the
				// critical path.
				h.Completed = true
				o.Counter("queries_completed").Inc()
				o.EmitSpan(h.lastSpan, obs.Event{Kind: obs.KindComplete, Query: o.QueryTag(h.QueryID),
					EP: int(from), N: int64(len(h.Results))})
				h.finish()
			}
		})
	return h
}

// CancelQuery explicitly cancels a query at its injector: the handle
// becomes terminal, the cancellation is broadcast down the
// aggregation tree (see Node.CancelQuery), and no further result updates
// are delivered. Cancelling an already-terminal query only tears down
// remaining tree state.
func (c *Cluster) CancelQuery(h *QueryHandle, from simnet.Endpoint) {
	o := c.Obs()
	o.Counter("queries_cancelled").Inc()
	o.EmitSpan(h.lastSpan, obs.Event{Kind: obs.KindCancel, Query: o.QueryTag(h.QueryID),
		EP: int(from), N: int64(len(h.Results))})
	h.Cancelled = true
	h.finish()
	c.Nodes[from].CancelQuery(h.QueryID)
}

// TrueRelevantRows returns the exact number of rows matching the query
// across every endsystem's data (available or not), with NOW() bound to
// the current clock — the denominator of completeness. CountMatching
// resolves NOW() as it executes, so q itself is passed: the per-table plan
// cache is keyed by query pointer, and a bound copy per call would miss it
// on every endsystem and evict the plans of queries still running.
func (c *Cluster) TrueRelevantRows(q *relq.Query) int64 {
	now := int64(c.Sched.Now() / time.Second)
	var total int64
	for _, n := range c.Nodes {
		tbl, ok := n.tables[q.Table]
		if !ok {
			continue
		}
		cnt, err := tbl.CountMatching(q, now)
		if err == nil {
			total += cnt
		}
	}
	return total
}

// NumLive returns the number of currently-available endsystems.
func (c *Cluster) NumLive() int { return c.Ring.NumLive() }

// FirstLive returns the lowest-indexed endsystem that is currently up, for
// use as a query injector. ok is false when everything is down.
func (c *Cluster) FirstLive() (ep simnet.Endpoint, ok bool) {
	for i, n := range c.Nodes {
		if n.Alive() {
			return simnet.Endpoint(i), true
		}
	}
	return 0, false
}

// Coords returns the cluster's network-coordinate space, or nil when the
// subsystem is disabled.
func (c *Cluster) Coords() *coords.Space { return c.space }

// TrueRowsInScope is TrueRelevantRows restricted to h's RTT scope: the
// exact matching row count over the endsystems inside the scope's frozen
// coordinate snapshot that were up at some instant since injection — the
// rows eventual completeness promises by now, brute-forced for oracle
// checks. Falls back to TrueRelevantRows when the query carries no scope.
func (c *Cluster) TrueRowsInScope(h *QueryHandle, q *relq.Query) int64 {
	if c.space == nil || !c.space.HasScope(h.QueryID) {
		return c.TrueRelevantRows(q)
	}
	at := c.Sched.Now()
	now := int64(at / time.Second)
	var total int64
	for i, n := range c.Nodes {
		if !c.space.InScope(h.QueryID, simnet.Endpoint(i)) {
			continue
		}
		if up, ok := c.cfg.Trace.Profiles[i].NextUp(h.Injected); !ok || up > at {
			continue
		}
		tbl, ok := n.tables[q.Table]
		if !ok {
			continue
		}
		cnt, err := tbl.CountMatching(q, now)
		if err == nil {
			total += cnt
		}
	}
	return total
}
