package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// paperQueries are the four evaluation queries of the paper's Figures 5-8.
var paperQueries = []string{
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
	"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
	"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
	"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
}

// scanQueries mix equality, range and three-conjunct predicates, so the
// selection kernels see each shape. Every predicate is on a column with
// a histogram, so the predictor has an estimate to be judged on, and none
// is on ts: the generated rows are not timestamp-ordered, so zone maps
// have next to nothing to drop (20 of some 150,000 block visits, short
// last blocks whose value range happens to miss a predicate).
var scanQueries = []string{
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
	"SELECT COUNT(*) FROM Flow WHERE LocalPort=443",
	"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
	"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
	"SELECT AVG(Bytes) FROM Flow WHERE Bytes >= 1000 AND Bytes <= 100000",
	"SELECT MAX(Bytes) FROM Flow WHERE App='SMB' AND Bytes > 5000 AND LocalPort >= 1024",
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND Bytes > 10000 AND LocalPort >= 1024",
	"SELECT COUNT(*) FROM Flow WHERE App='DNS' AND LocalPort=53 AND Bytes < 200",
}

// feedQueries run over a table that grows during the window; half bind
// NOW() at injection and ask for the last virtual hour.
var feedQueries = []string{
	"SELECT COUNT(*) FROM Flow WHERE ts >= NOW() - 3600",
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
	"SELECT SUM(Bytes) FROM Flow WHERE ts >= NOW() - 3600 AND Bytes > 20000",
	"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
}

// queryPlan is one planned injection.
type queryPlan struct {
	at         time.Duration // virtual injection time
	tmpl       int           // index into the workload's templates
	deadline   time.Duration // lifetime before cancellation; 0 = persistent
	continuous bool
}

// packetSpec describes a packet-level workload: a cluster, its data, and
// the queries injected during the measured window [warmup, end].
type packetSpec struct {
	gnutella    bool
	n           int
	flowsPerDay int
	dataHorizon time.Duration // span of generated Flow timestamps; 0 = end
	feed        time.Duration // live-feed period; 0 = static data
	warmup      time.Duration
	end         time.Duration
	templates   []string
	// queries one-shot queries are injected one per period from first,
	// each cancelled after deadline (0 = persistent, never cancelled);
	// standing are the continuous queries injected beside them.
	queries  int
	first    time.Duration
	period   time.Duration
	deadline time.Duration
	standing []queryPlan
}

// plans lays out the window's injections, the templates in rotation. The
// rotation is the same for every seed: which template meets which instant
// of the availability trace decides how well the predictor can do, and a
// seeded offset moved scan64's predictor fit by four points.
func (s *packetSpec) plans() []queryPlan {
	plans := make([]queryPlan, s.queries, s.queries+len(s.standing))
	for i := range plans {
		plans[i] = queryPlan{at: s.first + time.Duration(i)*s.period,
			tmpl: i % len(s.templates), deadline: s.deadline}
	}
	return append(plans, s.standing...)
}

// workload is one named set of inputs. Exactly one of packet and predict
// is set. reps is how many repetitions `-workload` measures at the
// declared run_seconds: a fixed count, so that faster code is not given
// more tries than slower code.
type workload struct {
	name    string
	why     string
	reps    int
	packet  *packetSpec
	predict *predictSpec
}

// driven says whether BENCHMARK.json lists the workload. Its driver wants
// every end-to-end metric from every workload it runs, steady from seed
// to seed. The availability-level study sends no message, so it has no
// delay and no byte to report; the live-feed workload has no available
// truth to time a t99 against, and under churn its first results wait
// for whole one-second retries, so its tail delay moves a second at a
// time. Both run in the suite, with the metrics that apply to them.
func (w *workload) driven() bool { return w.packet != nil && w.packet.feed == 0 }

const adhocDeadline = 10 * time.Minute

// workloads returns the five workloads at benchmark size, or at the small
// sizes the tier-1 test uses. Sizes trade the issue's starting points for
// the driver's total-time cap: horizons and query counts shrink, the
// number of workloads and interactive1k's 100 queries do not.
func workloads(quick bool) []workload {
	steady := &packetSpec{n: 2000, flowsPerDay: 50, warmup: time.Hour, end: 6 * time.Hour,
		templates: paperQueries, queries: 10, first: time.Hour, period: 30 * time.Minute}

	interactive := &packetSpec{n: 1000, flowsPerDay: 200, warmup: time.Hour,
		templates: paperQueries, queries: 100, first: time.Hour, period: 30 * time.Second, deadline: adhocDeadline}

	scan := &packetSpec{n: 64, flowsPerDay: 10000, dataHorizon: 3 * 24 * time.Hour, warmup: time.Hour,
		templates: scanQueries, queries: 160, first: time.Hour, period: 30 * time.Second, deadline: adhocDeadline}

	churn := &packetSpec{gnutella: true, n: 1000, flowsPerDay: 20000, feed: 15 * time.Minute,
		warmup: time.Hour, end: 5 * time.Hour, templates: feedQueries,
		queries: 60, first: time.Hour + 5*time.Minute, period: 210 * time.Second, deadline: adhocDeadline,
		standing: []queryPlan{
			{at: time.Hour, tmpl: 1, continuous: true},
			{at: time.Hour + time.Minute, tmpl: 3, continuous: true},
		}}

	predict := &predictSpec{n: 2000, weeks: 4, flowsPerDay: 60, injections: 7}

	if quick {
		steady.n, steady.end, steady.queries, steady.period = 64, 3*time.Hour, 6, 15*time.Minute
		interactive.n, interactive.queries = 64, 10
		scan.n, scan.dataHorizon, scan.flowsPerDay, scan.queries = 16, 24*time.Hour, 5000, 8
		churn.n, churn.end, churn.flowsPerDay = 64, 3*time.Hour, 2000
		churn.queries, churn.standing = 8, churn.standing[:1]
		predict.n, predict.weeks, predict.injections = 64, 2, 2
	}
	// A window of ad-hoc queries ends when the last one's deadline does.
	for _, s := range []*packetSpec{interactive, scan} {
		s.end = s.first + time.Duration(s.queries)*s.period + s.deadline
	}

	return []workload{
		{name: "steady2k", reps: 8, packet: steady,
			why: "long-lived queries on a quiet N=2000 cluster: simnet, pastry heartbeats, metadata pushes and aggtree refresh dominate, relq idles"},
		{name: "interactive1k", reps: 4, packet: interactive,
			why: "100 ad-hoc queries, one per 30 virtual s, on N=1000: dissem, aggtree and pastry routing carry the cost; the paper's user-visible delay"},
		{name: "scan64", reps: 5, packet: scan,
			why: "N=64 with ~30k-row unordered tables: relq selection and aggregate kernels fill the window, histogram builds fill set-up, zone maps prune next to nothing"},
		{name: "churnfeed1k", reps: 3, packet: churn,
			why: "Gnutella churn with a live feed: relq inserts, summary rebuilds, pastry join/repair, metadata re-replication and aggtree takeover"},
		{name: "predict2k", reps: 3, predict: predict,
			why: "availability-level study over a 4-week trace: avail model learning, predictor, histogram estimation and anemone generation; no packets"},
	}
}

// worldSeed fixes the world every repetition is put to: availability
// trace, topology, endsystem ids, data. -seed draws what is asked of it:
// each query's injector, the study's injection instants. Every end-to-end
// metric is judged by its spread across seeds, and a seeded topology
// alone spreads round-trip times by 15%, which would then be the noise
// floor under every delay; so the numbers describe this one world.
const worldSeed = 1

// repOptions selects what one repetition records beyond the end-to-end
// numbers.
type repOptions struct {
	spans   *spanRecorder // nil = untraced
	profile bool          // take a CPU profile of the window
	events  *eventLog     // non-nil attaches the obs tracer
}

// eventLog is an obs.Sink that keeps every event of a traced repetition.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Record(ev obs.Event) { l.events = append(l.events, ev) }

// repResult is what one repetition of one workload measured.
type repResult struct {
	seed     int64
	SetupS   float64 // wall time of the whole set-up
	replaced bool    // run again because the host looked disturbed
	Host     hostCost
	Ops      int
	Failures []string
	// Det holds every virtual-time, byte and count metric: exact per seed,
	// so two repetitions with one seed must agree on them bit for bit.
	Det map[string]float64
	// Queries holds the per-query samples behind Det's delays and shares,
	// for pooling with the other repetitions'.
	Queries querySamples
	// Noisy holds the host-dependent per-layer numbers.
	Noisy map[string]float64
	// Samples is the traced repetition's CPU profile of the window.
	Samples []stackSample
}

// setup times fn as the repetition's set-up.
func (r *repResult) setup(rec *spanRecorder, fn func()) {
	defer rec.start("setup", "")()
	t0 := time.Now()
	fn()
	r.SetupS = time.Since(t0).Seconds()
}

// window measures fn as the repetition's window: host cost and, when
// asked for, a CPU profile of exactly the interval the CPU time covers —
// the profile starts after the collection that opens the window and
// stops before the ones that measure the live heap.
func (r *repResult) window(opt repOptions, fn func()) {
	win := beginWindow()
	var stopProfile func() []stackSample
	if opt.profile {
		stopProfile = startProfile()
	}
	endRun := opt.spans.start("run", "")
	fn()
	endRun()
	r.Host = win.end()
	if stopProfile != nil {
		r.Samples = stopProfile()
	}
	r.Host.LiveMB = liveHeapMB()
}

func (r *repResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// queryRun tracks one injected query.
type queryRun struct {
	plan       queryPlan
	from       simnet.Endpoint
	q          *relq.Query
	h          *core.QueryHandle
	availTruth int64 // oracle rows on endsystems alive at injection (static data)
	endAt      time.Duration
	early      bool // cancelled at Completed, before its deadline
}

// counterNames maps per-layer count metrics to the obs counters they read.
var counterNames = [][2]string{
	{"simnet.sends", "net_sends"},
	{"simnet.lost", "net_lost"},
	{"pastry.joins", "pastry_joins"},
	{"pastry.leafset_repairs", "pastry_leafset_repairs"},
	{"pastry.stale_retries", "pastry_stale_retries"},
	{"metadata.pushes", "meta_pushes"},
	{"metadata.rereplications", "meta_rereplications"},
	{"dissem.range_msgs", "dissem_range_msgs"},
	{"dissem.reissues", "dissem_reissues"},
	{"aggtree.submissions", "aggtree_submissions"},
	{"aggtree.partials_merged", "aggtree_partials_merged"},
	{"aggtree.resubmits", "aggtree_resubmits"},
	{"aggtree.takeovers", "aggtree_takeovers"},
	{"aggtree.dup_contributions", "aggtree_dup_contributions"},
	{"relq.rows_scanned", "rows_scanned"},
	{"relq.blocks_pruned", "blocks_pruned"},
	{"relq.rows_matched", "rows_matched"},
}

// checkpoints are the delays since injection at which the predictor is
// compared with the rows actually received; a query is also judged at
// the instant it ended. Nothing earlier than ten seconds: most results
// arrive within the first second, and a checkpoint inside that ramp
// measures where the injector sits in the topology, not the predictor.
var checkpoints = []time.Duration{10 * time.Second, time.Minute,
	10 * time.Minute, time.Hour, 4 * time.Hour}

// runPacket runs one repetition of a packet-level workload: set-up
// (trace, cluster, oracle, warm-up), the measured window, verification.
func runPacket(s *packetSpec, seed int64, opt repOptions) *repResult {
	res := &repResult{Det: map[string]float64{}, Noisy: map[string]float64{}}
	rec := opt.spans
	phase := func(name string, fn func()) {
		defer rec.start(name, "")()
		fn()
	}

	var (
		trace     *avail.Trace
		c         *core.Cluster
		templates = make([]*relq.Query, len(s.templates))
		rows      [][]int64 // [template][endsystem]; nil on a live feed
		truth     []int64   // [template], all endsystems
		runs      []*queryRun
	)
	res.setup(rec, func() {
		phase("avail.generate", func() {
			if s.gnutella {
				trace = avail.GenerateGnutella(avail.DefaultGnutellaConfig(s.n, s.end, worldSeed))
			} else {
				trace = avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.n, s.end, worldSeed))
			}
		})

		cfg := core.DefaultClusterConfig(trace, worldSeed)
		cfg.Workload.MeanFlowsPerDay = s.flowsPerDay
		if s.dataHorizon > 0 {
			cfg.Workload.Horizon = s.dataHorizon
		}
		if s.feed > 0 {
			cfg.Feed = core.FeedConfig{Enabled: true, Period: s.feed}
		}
		if opt.events != nil {
			o := obs.New()
			o.SetTracer(obs.NewTracer(opt.events))
			cfg.Obs = o
		}
		phase("core.new_cluster", func() { c = core.NewCluster(cfg) })

		for i, sql := range s.templates {
			templates[i] = relq.MustParse(sql)
		}
		// The oracle: per-endsystem matching rows from the benchmark's own
		// copy of the data and the row-at-a-time reference executor. A live
		// feed has no up-front data; its truth is read at window end.
		phase("oracle.truth", func() {
			if s.feed > 0 {
				return
			}
			rows, truth = oracle(res, cfg.Workload, s.n, templates)
			for t, q := range templates {
				if got := c.TrueRelevantRows(q); got != truth[t] {
					res.failf("oracle: template %d: cluster holds %d matching rows, oracle %d", t, got, truth[t])
				}
			}
		})

		rng := rand.New(rand.NewSource(seed))
		for _, p := range s.plans() {
			until := s.end
			if p.deadline > 0 {
				until = p.at + p.deadline
			}
			runs = append(runs, &queryRun{plan: p, from: pickInjector(rng, trace, p.at, until)})
		}

		phase("warmup", func() { c.RunUntil(s.warmup) })
	})

	// ---- the measured window
	type action struct {
		at     time.Duration
		run    *queryRun
		cancel bool
	}
	var actions []action
	for _, r := range runs {
		actions = append(actions, action{at: r.plan.at, run: r})
		if r.plan.deadline > 0 {
			actions = append(actions, action{at: r.plan.at + r.plan.deadline, run: r, cancel: true})
		}
	}
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].at < actions[j].at })

	o := c.Obs()
	stats := c.Net.Stats()
	counter0 := make(map[string]uint64)
	for _, cn := range counterNames {
		counter0[cn[1]] = o.Counter(cn[1]).Value()
	}
	planHit0, planMiss0 := o.Counter("plan_cache_hits").Value(), o.Counter("plan_cache_misses").Value()
	events0 := c.Sched.Executed()
	var bytes0 [simnet.NumClasses]float64
	for cl := range bytes0 {
		bytes0[cl] = stats.TotalTx(simnet.Class(cl))
	}

	cancel := func(r *queryRun) {
		defer rec.start("core.cancel", r.h.QueryID.Short())()
		c.CancelQuery(r.h, r.from)
		r.endAt = c.Sched.Now()
	}
	step := func(a action) {
		endSpan := rec.start("core.run_until", "")
		c.RunUntil(a.at)
		endSpan()
		r := a.run
		if a.cancel {
			if r.h != nil && !r.h.Cancelled {
				cancel(r)
			}
			return
		}
		if !c.Nodes[r.from].Alive() {
			res.failf("query at %v: injector %d is down", r.plan.at, r.from)
			return
		}
		r.q = templates[r.plan.tmpl].BindNow(int64(a.at / time.Second))
		if rows != nil {
			for i, n := range c.Nodes {
				if n.Alive() {
					r.availTruth += rows[r.plan.tmpl][i]
				}
			}
		}
		endSpan = rec.start("core.inject", "")
		if r.plan.continuous {
			r.h = c.InjectContinuousQuery(r.from, r.q)
		} else {
			r.h = c.InjectQuery(r.from, r.q)
		}
		endSpan()
		if r.plan.deadline > 0 {
			// An ad-hoc query is cancelled the instant it completes. The
			// update that crosses the predictor's total is delivered
			// before the handle is marked, so the cancellation runs as
			// the next event at the same virtual time.
			h := r.h
			h.OnUpdate(func(u core.ResultUpdate) {
				if h.Predictor == nil || h.Cancelled ||
					float64(u.Partial.Count) < 0.99*h.Predictor.ExpectedTotal() {
					return
				}
				c.Sched.After(0, func() {
					if h.Completed && !h.Cancelled {
						r.early = true
						cancel(r)
					}
				})
			})
		}
	}
	res.window(opt, func() {
		for _, a := range actions {
			step(a)
		}
		defer rec.start("core.run_until", "")()
		c.RunUntil(s.end)
	})

	// ---- verification and metrics
	defer rec.start("verify", "")()
	qs := &res.Queries
	for _, r := range runs {
		if r.h == nil {
			continue
		}
		res.Ops++
		if r.endAt == 0 {
			r.endAt = s.end
		}
		h := r.h
		all := int64(-1)
		if truth != nil {
			all = truth[r.plan.tmpl]
		} else {
			all = c.TrueRelevantRows(r.q)
		}
		if len(h.Results) == 0 {
			res.failf("query %s at %v: no result update by %v", h.QueryID.Short(), r.plan.at, r.endAt)
			continue
		}
		ok := true
		for _, u := range h.Results {
			if u.Partial.Count > all {
				res.failf("query %s: update at %v counts %d rows, truth is %d (exactly-once violated)",
					h.QueryID.Short(), u.At, u.Partial.Count, all)
				ok = false
				break
			}
		}
		final := h.Results[len(h.Results)-1].Partial.Count
		if rows != nil && !r.early {
			var need int64
			for i, p := range trace.Profiles {
				if p.AvailableThroughout(h.Injected, r.endAt) {
					need += rows[r.plan.tmpl][i]
				}
			}
			if final < need {
				res.failf("query %s: final count %d, endsystems up throughout hold %d",
					h.QueryID.Short(), final, need)
				ok = false
			}
		}
		if !ok {
			continue
		}

		qs.ttfr = append(qs.ttfr, ms(h.Results[0].At-h.Injected))
		if rows != nil {
			target := int64(math.Ceil(0.99 * float64(r.availTruth)))
			reached, after := false, time.Duration(0)
			for _, u := range h.Results {
				if u.Partial.Count >= target {
					reached, after = true, u.At-h.Injected
					break
				}
			}
			d, cens := censoredDelay(reached, after, r.endAt-h.Injected)
			if cens {
				qs.censored++
			}
			qs.t99 = append(qs.t99, ms(d))
		}
		if all > 0 {
			qs.complete = append(qs.complete, 100*float64(final)/float64(all))
			if h.Predictor != nil {
				life := r.endAt - h.Injected
				for _, d := range append([]time.Duration{life}, checkpoints...) {
					if d > life {
						continue
					}
					var got int64
					for _, u := range h.Results {
						if u.At > h.Injected+d {
							break
						}
						got = u.Partial.Count
					}
					qs.predErr = append(qs.predErr, 100*math.Abs(h.Predictor.RowsBy(d)-float64(got))/float64(all))
				}
			}
		}
		if h.Predictor == nil {
			res.failf("query %s: no predictor by %v", h.QueryID.Short(), r.endAt)
		}
	}

	det := res.Det
	qs.metrics(det)
	queryBytes := stats.TotalTx(simnet.ClassQuery) - bytes0[simnet.ClassQuery]
	pastryBytes := stats.TotalTx(simnet.ClassPastry) - bytes0[simnet.ClassPastry]
	maintBytes := stats.TotalTx(simnet.ClassMaintenance) - bytes0[simnet.ClassMaintenance]
	det["query_bytes_per_query"] = queryBytes / float64(len(runs))
	det["maint_bytes_per_node_s"] = (pastryBytes + maintBytes) / float64(s.n) / (s.end - s.warmup).Seconds()

	events := float64(c.Sched.Executed() - events0)
	det["simnet.events"] = events
	det["simnet.bytes_pastry"] = pastryBytes
	det["simnet.bytes_maint"] = maintBytes
	det["simnet.bytes_query"] = queryBytes
	for _, cn := range counterNames {
		det[cn[0]] = float64(o.Counter(cn[1]).Value() - counter0[cn[1]])
	}
	det["pastry.hops_mean"] = o.Histogram("pastry_hops").Mean()
	det["dissem.predictor_latency_ms_p50"] = o.DurationHistogram("dissem_predictor_latency_ns").Quantile(0.5) / 1e6
	det["aggtree.fanin_delay_ms_p50"] = o.DurationHistogram("aggtree_fanin_delay_ns").Quantile(0.5) / 1e6
	hits := float64(o.Counter("plan_cache_hits").Value() - planHit0)
	misses := float64(o.Counter("plan_cache_misses").Value() - planMiss0)
	if hits+misses > 0 {
		det["relq.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	det["core.queries"] = float64(len(runs))
	det["core.events_per_query"] = events / float64(len(runs))
	res.Noisy["core.allocs_per_event"] = float64(res.Host.Mallocs) / events
	res.Noisy["host.wall_s"] = res.Host.WallS
	return res
}

// oracle counts, from the benchmark's own copy of the data and the
// row-at-a-time reference executor, the rows of each of n endsystems that
// match each query: rows[query][endsystem], and their sum per query.
func oracle(res *repResult, cfg anemone.Config, n int, queries []*relq.Query) (rows [][]int64, truth []int64) {
	rows = make([][]int64, len(queries))
	truth = make([]int64, len(queries))
	for t := range rows {
		rows[t] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		ds := anemone.Generate(cfg, i)
		for t, q := range queries {
			part, err := ds.Flow.ExecuteOracle(q, 0)
			if err != nil {
				res.failf("oracle: %v", err)
				continue
			}
			rows[t][i] = part.Count
			truth[t] += part.Count
		}
	}
	return rows, truth
}

// pickInjector draws a seeded-random endsystem that the trace keeps up
// from ten minutes before the injection (so it has joined) until the
// query ends: the querying user's machine stays on while they wait. A
// query whose injector dies receives nothing at all, which is existing
// behaviour and would hide every other delay in the workload.
func pickInjector(rng *rand.Rand, trace *avail.Trace, at, until time.Duration) simnet.Endpoint {
	from := at - 10*time.Minute
	if from < 0 {
		from = 0
	}
	var up []simnet.Endpoint
	for i, p := range trace.Profiles {
		if p.AvailableThroughout(from, until) {
			up = append(up, simnet.Endpoint(i))
		}
	}
	if len(up) == 0 {
		return 0
	}
	return up[rng.Intn(len(up))]
}

// predictSpec describes the availability-level completeness study.
type predictSpec struct {
	n           int
	weeks       int
	flowsPerDay int
	injections  int
}

// runPredict runs one repetition of the completeness study: the four
// paper queries at several injection instants in the trace's last week,
// each with a 48-hour lifetime.
func runPredict(s *predictSpec, seed int64, opt repOptions) *repResult {
	res := &repResult{Det: map[string]float64{}, Noisy: map[string]float64{}}
	rec := opt.spans
	phase := func(name string, fn func()) {
		defer rec.start(name, "")()
		fn()
	}

	horizon := time.Duration(s.weeks) * 7 * 24 * time.Hour
	lifetime := 48 * time.Hour
	wcfg := anemone.DefaultConfig(horizon, worldSeed)
	wcfg.MeanFlowsPerDay = s.flowsPerDay
	queries := make([]*relq.Query, len(paperQueries))
	for i, sql := range paperQueries {
		queries[i] = relq.MustParse(sql)
	}
	// One injection a day over the days before the last lifetime, at hours
	// that cover night, the morning ramp, the working day and the evening.
	// The seed moves each instant by up to two hours; which weekday gets
	// which hour stays fixed, because a Friday-evening query whose 48 hours
	// end on Sunday is a different experiment from a Monday-morning one,
	// and swapping them moves completeness by points.
	hours := []int{1, 5, 8, 11, 14, 18, 21}
	rng := rand.New(rand.NewSource(seed))
	injectAts := make([]time.Duration, s.injections)
	base := horizon - lifetime - time.Duration(s.injections)*24*time.Hour
	for i := range injectAts {
		injectAts[i] = base + time.Duration(i)*24*time.Hour +
			time.Duration(hours[i%len(hours)])*time.Hour + time.Duration(rng.Intn(120))*time.Minute
	}

	var trace *avail.Trace
	var truth []int64
	res.setup(rec, func() {
		phase("avail.generate", func() {
			trace = avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.n, horizon, worldSeed))
		})
		phase("oracle.truth", func() { _, truth = oracle(res, wcfg, s.n, queries) })
	})

	var cells [][]*core.CompletenessResult
	res.window(opt, func() {
		defer rec.start("core.completeness_study", "")()
		cells = core.RunCompletenessStudy(core.CompletenessStudyConfig{
			Trace: trace, Workload: wcfg, Queries: queries, InjectAts: injectAts,
			Lifetime: lifetime, Parallelism: 1,
		})
	})
	// live_heap_mb counted the study's inputs and results, as it counts
	// the cluster on the packet-level workloads.
	runtime.KeepAlive(trace)

	defer rec.start("verify", "")()
	qs := &res.Queries
	for t := range cells {
		for j, cell := range cells[t] {
			res.Ops++
			if cell.TotalRelevantRows != truth[t] {
				res.failf("query %d injection %d: study counts %d relevant rows, oracle %d",
					t, j, cell.TotalRelevantRows, truth[t])
				continue
			}
			ok := true
			for k, got := range cell.ActualRows {
				if got > float64(truth[t]) || (k > 0 && got < cell.ActualRows[k-1]) {
					res.failf("query %d injection %d: actual rows %v at %v out of order or above truth %d",
						t, j, got, cell.Delays[k], truth[t])
					ok = false
					break
				}
			}
			if !ok || truth[t] == 0 {
				continue
			}
			qs.complete = append(qs.complete, 100*cell.ActualRows[len(cell.ActualRows)-1]/float64(truth[t]))
			for k := range cell.Delays {
				qs.predErr = append(qs.predErr, 100*math.Abs(cell.PredictedRows[k]-cell.ActualRows[k])/float64(truth[t]))
			}
		}
	}
	qs.metrics(res.Det)
	res.Det["core.queries"] = float64(res.Ops)
	res.Noisy["host.wall_s"] = res.Host.WallS
	return res
}

func (w *workload) run(seed int64, opt repOptions) *repResult {
	// The last repetition's cluster is garbage by now; collect it here so
	// that its collection is not charged to this repetition's set-up.
	runtime.GC()
	var r *repResult
	if w.packet != nil {
		r = runPacket(w.packet, seed, opt)
	} else {
		r = runPredict(w.predict, seed, opt)
	}
	r.seed = seed
	return r
}
