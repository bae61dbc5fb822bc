// Package qserve is the delay-aware query service that sits between
// open-loop clients and a core.Cluster. Seaweed's metadata layer makes a
// query's outcome largely predictable *before* the query runs: the
// injector's summaries estimate the result's row volume, and the
// completeness predictor estimates when those rows will have arrived.
// This package turns those predictions into operational decisions:
//
//   - Admission: a query whose predicted latency (queue wait + its own
//     result window + the predicted time-to-90%-completeness for its
//     template) exceeds its class delay budget is shed immediately —
//     the client learns "not in time" in milliseconds instead of
//     discovering it an hour later.
//   - Scheduling: admitted queries multiplex a fixed query-bandwidth
//     budget. Dispatch order is shortest-predicted-job-first over the
//     predicted time to 90% completeness, with per-class occupancy caps
//     and an anti-starvation reservation for the oldest waiter.
//
// Both mechanisms can be ablated independently (DisableAdmission,
// DisablePriority) to measure what each contributes; the experiments
// package's WorkloadSweep does exactly that.
//
// Each arrival moves through
//
//	admitted → queued → running → retired (cancelled in the cluster)
//	        ↘ shed
//
// and the service keeps the lifecycle metrics (queries_admitted,
// queries_shed, queries_active) and emits the queued, started and shed
// trace spans, so a query's causal chain runs from its arrival through
// injection (see internal/obs/causal).
package qserve

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// ewmaAlpha is the weight of the newest observation in the per-template
// time-to-90% estimate.
const ewmaAlpha = 0.3

// Config parameterizes one query-service run.
type Config struct {
	// Cluster is the world the service runs on. Its Seed also drives the
	// workload streams, and its Obs, when set, receives the run's metrics.
	Cluster core.ClusterConfig
	// Workload is the open-loop arrival plan.
	Workload Workload

	// DelayBudget is each class's end-to-end latency budget; admission
	// sheds queries predicted to miss it.
	DelayBudget [NumClasses]time.Duration
	// ResultWindow is how long a started query of each class is allowed
	// to stream results before the service retires it (explicit cancel,
	// reclaiming its aggregation tree).
	ResultWindow [NumClasses]time.Duration
	// StarveAfter is the anti-starvation bound: once the oldest queued
	// query has waited this long, dispatch is reserved for it until it
	// fits.
	StarveAfter time.Duration

	// DisableAdmission ablates the admission controller: nothing is ever
	// shed.
	DisableAdmission bool
	// DisablePriority ablates delay-aware dispatch: strict FIFO with no
	// bypass (head-of-line blocking included).
	DisablePriority bool
}

// DefaultConfig returns the service configuration the named workloads are
// sized against, on n endsystems of a Farsite trace that outlasts the
// workload by an hour.
func DefaultConfig(n int, seed int64, w Workload) Config {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, w.End()+time.Hour, seed))
	cluster := core.DefaultClusterConfig(trace, seed)
	// Trees are reclaimed by the service's explicit retire cancel; the
	// TTL stays as the backstop for cancels lost to churn.
	cluster.Node.Agg.QueryTTL = 4 * time.Hour
	return Config{
		Cluster: cluster, Workload: w,
		DelayBudget:  [NumClasses]time.Duration{Interactive: 2 * time.Hour, Batch: 10 * time.Minute},
		ResultWindow: [NumClasses]time.Duration{Interactive: 3 * time.Minute, Batch: 10 * time.Minute},
		StarveAfter:  20 * time.Minute,
	}
}

// The query pipe. Every named workload is sized against it (see Light and
// Heavy): load is varied through the workload, never the pipe.
const (
	// pipeBudget is the service's total query-bandwidth budget in cost
	// units: the summed cost of concurrently running queries never
	// exceeds it. It models the shared pipe the paper's constant-rate
	// query traffic flows through.
	pipeBudget = 8
	// unitHold is how long one cost unit of a query occupies the pipe: a
	// query of cost c holds c units for c*unitHold (larger results keep
	// their tree hot longer).
	unitHold = 20 * time.Second
	// maxCost caps a single query's cost units: a full-table scan.
	maxCost = 6
)

// classCap bounds one class's share of pipeBudget, so batch scans can
// never occupy the whole pipe. Constant; Go has no array constants.
var classCap = [NumClasses]int{Interactive: 8, Batch: 6}

// tracked is one query's service-side record, kept for the whole run so
// the report can compute arrival-to-t90 latencies post hoc.
type tracked struct {
	seq      int
	arr      Arrival
	class    ClassID
	query    *relq.Query
	injector simnet.Endpoint
	cost     int
	hold     time.Duration

	shed    bool
	span    uint64 // latest lifecycle span (queued, then started)
	queued  time.Duration
	started time.Duration // -1 until dispatched
	handle  *core.QueryHandle
}

// Service multiplexes an open-loop workload onto one cluster. It runs
// entirely in virtual time on the simulation goroutine.
type Service struct {
	cfg   Config
	c     *core.Cluster
	sched *simnet.Wheel
	// rowsPerUnit converts the metadata-predicted result row volume into
	// cost units.
	rowsPerUnit float64

	templates map[string]*relq.Query
	queue     []*tracked // arrival order; SJF scans, FIFO pops head
	all       []*tracked

	inflight      int
	classInflight [NumClasses]int
	open          int // admitted, not yet retired (queued + running)
	peakOpen      int
	ewma          map[string]time.Duration // template name -> t90 estimate
	o             *obs.Obs
	gActive       *obs.Gauge // queries_active: started, not yet complete or cancelled
	cAdmitted     *obs.Counter
	cShed         *obs.Counter
	gQueueDepth   *obs.Gauge // qserve_queue_depth: current scheduler queue length
}

// NewService attaches a query service to c, the cluster built from
// cfg.Cluster.
func NewService(cfg Config, c *core.Cluster) *Service {
	o := c.Obs()
	s := &Service{
		cfg: cfg, c: c, sched: c.Sched,
		templates: make(map[string]*relq.Query),
		ewma:      make(map[string]time.Duration),
		o:         o,
		gActive:   o.Gauge("queries_active"),
		cAdmitted: o.Counter("queries_admitted"),
		cShed:     o.Counter("queries_shed"),
	}
	// Registered up front so a run that retires nothing still reports it;
	// Cluster.CancelQuery counts the cancels.
	o.Counter("queries_cancelled")
	// Tie the cost scale to the simulated data volume, the cluster's rows
	// a day over its capture period on every endsystem, so a full-table
	// scan (the largest query) lands at maxCost and filtered interactive
	// aggregates at a third of it.
	data := cfg.Cluster.Workload
	days := float64(data.Horizon) / float64(24*time.Hour)
	s.rowsPerUnit = float64(data.MeanFlowsPerDay) * days * float64(cfg.Cluster.Trace.NumEndsystems()) / maxCost
	s.gQueueDepth = s.o.Gauge("qserve_queue_depth")
	for _, load := range cfg.Workload.Loads {
		for _, t := range load.Templates {
			if _, ok := s.templates[t.Name]; !ok {
				s.templates[t.Name] = relq.MustParse(t.SQL)
			}
		}
	}
	return s
}

// Schedule registers every workload arrival with the cluster's scheduler.
func (s *Service) Schedule() {
	for _, a := range s.cfg.Workload.Arrivals(s.cfg.Cluster.Seed) {
		s.sched.At(a.At, func() { s.arrive(a) })
	}
}

// pickInjector maps the arrival's random pick to a live endsystem by
// linear probe. The workload is open-loop: clients exist outside the
// cluster and connect to whatever endsystem is up.
func (s *Service) pickInjector(pick int64) (simnet.Endpoint, bool) {
	n := len(s.c.Nodes)
	start := int(pick % int64(n))
	for i := 0; i < n; i++ {
		ep := simnet.Endpoint((start + i) % n)
		if s.c.Nodes[ep].Alive() {
			return ep, true
		}
	}
	return 0, false
}

// estimateCost converts the injector's metadata-predicted result volume
// into pipe cost units. The estimate is the injector's own-row histogram
// estimate scaled to the population — exactly the summary data Seaweed
// replicates, so admission needs no extra protocol.
func (s *Service) estimateCost(injector simnet.Endpoint, q *relq.Query) int {
	estRows := s.c.Nodes[injector].EstimateOwnRows(q) * float64(len(s.c.Nodes))
	return min(max(int(math.Round(estRows/s.rowsPerUnit)), 1), maxCost)
}

// queuedWork is the queue's total pipe occupancy demand in unit-seconds.
func (s *Service) queuedWork() time.Duration {
	var w time.Duration
	for _, t := range s.queue {
		w += time.Duration(t.cost) * t.hold
	}
	return w
}

// predictedWait estimates how long a new arrival would queue: the work
// ahead of it divided by the pipe's drain rate.
func (s *Service) predictedWait() time.Duration {
	return s.queuedWork() / pipeBudget
}

// predictedT90 is the service's running estimate of a template's time
// from dispatch to 90% completeness: an EWMA over observed runs, seeded
// by the query's own result window as a prior.
func (s *Service) predictedT90(t *tracked) time.Duration {
	if est, ok := s.ewma[t.arr.Tmpl.Name]; ok {
		return est
	}
	return t.hold
}

func (s *Service) arrive(a Arrival) {
	class := a.Tmpl.Class
	injector, ok := s.pickInjector(a.InjectorPick)
	if !ok {
		// Nobody is up; the client's connection itself fails. Not counted
		// as a serviced query.
		s.o.Counter("qserve_no_endsystem").Inc()
		return
	}
	q := s.templates[a.Tmpl.Name]
	t := &tracked{
		seq: len(s.all), arr: a, class: class, query: q, injector: injector, started: -1,
	}
	t.cost = s.estimateCost(injector, q)
	t.hold = time.Duration(t.cost) * unitHold
	s.cAdmitted.Inc()
	s.all = append(s.all, t)
	s.o.Counter("qserve_arrivals_" + class.String()).Inc()

	if !s.cfg.DisableAdmission {
		predicted := s.predictedWait() + t.hold + s.predictedT90(t)
		if predicted > s.cfg.DelayBudget[class] {
			t.shed = true
			s.cShed.Inc()
			s.o.EmitSpan(0, obs.Event{Kind: obs.KindShed, EP: int(injector), N: int64(t.seq)})
			s.o.Counter("qserve_shed_" + class.String()).Inc()
			return
		}
	}
	// The queued event roots the query's causal chain. Its queryId does not
	// exist yet (it is derived from the injection instant), so the event
	// carries the arrival sequence number, and the started and inject
	// events link back to it by span.
	t.span = s.o.EmitSpan(0, obs.Event{Kind: obs.KindQueued, EP: int(injector), N: int64(t.seq)})
	t.queued = s.sched.Now()
	s.queue = append(s.queue, t)
	s.gQueueDepth.Set(float64(len(s.queue)))
	s.open++
	if s.open > s.peakOpen {
		s.peakOpen = s.open
	}
	s.pump()
}

// fits reports whether the query can start under the budget and its
// class cap right now.
func (s *Service) fits(t *tracked) bool {
	return s.inflight+t.cost <= pipeBudget &&
		s.classInflight[t.class]+t.cost <= classCap[t.class]
}

// pump dispatches queued queries while budget allows.
//
// FIFO ablation: only the head may start — a head that does not fit
// blocks the line (that head-of-line cost is precisely what the
// delay-aware order removes).
//
// Delay-aware order: shortest predicted job first over predicted
// time-to-90% (the query's own hold plus the template's observed-t90
// EWMA), except that once the oldest waiter has starved past
// StarveAfter, its units are reserved: freed capacity accumulates for it
// until it fits. The reservation backfills — queries that fit within the
// capacity *beyond* the starved query's need may still start — so a
// large batch scan waiting for the pipe to drain throttles interactive
// flow instead of stalling it (under sustained batch pressure starved
// scans arrive back to back, and head-only reservations would chain
// those full stalls into long interactive outages).
func (s *Service) pump() {
	for len(s.queue) > 0 {
		idx := -1
		if s.cfg.DisablePriority {
			if !s.fits(s.queue[0]) {
				return
			}
			idx = 0
		} else if head := s.queue[0]; s.sched.Now()-head.queued > s.cfg.StarveAfter {
			if s.fits(head) {
				idx = 0
			} else {
				bestKey := time.Duration(math.MaxInt64)
				for i, t := range s.queue[1:] {
					if s.inflight+t.cost > pipeBudget-head.cost {
						continue
					}
					cc := s.classInflight[t.class] + t.cost
					if t.class == head.class {
						cc += head.cost
					}
					if cc > classCap[t.class] {
						continue
					}
					key := t.hold + s.predictedT90(t)
					if key < bestKey {
						bestKey, idx = key, i+1
					}
				}
				if idx < 0 {
					return
				}
			}
		} else {
			bestKey := time.Duration(math.MaxInt64)
			for i, t := range s.queue {
				if !s.fits(t) {
					continue
				}
				key := t.hold + s.predictedT90(t)
				if key < bestKey { // ties resolve to the earlier arrival
					bestKey, idx = key, i
				}
			}
			if idx < 0 {
				return
			}
		}
		t := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		s.gQueueDepth.Set(float64(len(s.queue)))
		s.start(t)
	}
}

func (s *Service) start(t *tracked) {
	t.started = s.sched.Now()
	t.span = s.o.EmitSpan(t.span, obs.Event{Kind: obs.KindStarted, EP: int(t.injector), N: int64(t.seq)})
	t.handle = s.c.InjectQueryCause(t.injector, t.query, t.span)
	s.gActive.Add(1)
	t.handle.WhenDone(func() { s.gActive.Add(-1) })
	s.inflight += t.cost
	s.classInflight[t.class] += t.cost
	cost, class := t.cost, t.class
	s.sched.After(t.hold, func() {
		s.inflight -= cost
		s.classInflight[class] -= cost
		s.pump()
	})
	s.sched.After(s.cfg.ResultWindow[t.class], func() { s.retire(t) })
}

// retire ends a started query at its result window: the observed
// time-to-90% feeds the template EWMA, per-class metrics are recorded,
// and the query is cancelled in the cluster — which reclaims its
// aggregation tree instead of letting refresh traffic run to the TTL.
func (s *Service) retire(t *tracked) {
	if t90, ok := t.t90(); ok {
		obs90 := t90 - t.started
		name := t.arr.Tmpl.Name
		if prev, seen := s.ewma[name]; seen {
			s.ewma[name] = time.Duration(ewmaAlpha*float64(obs90) + (1-ewmaAlpha)*float64(prev))
		} else {
			s.ewma[name] = obs90
		}
	}
	s.recordMetrics(t, s.sched.Now())
	s.open--
	s.c.CancelQuery(t.handle, t.injector)
}

// t90 returns the virtual instant the query's result first reached 90%
// of its final row count, post hoc over the handle's result log.
func (t *tracked) t90() (time.Duration, bool) {
	if t.handle == nil || len(t.handle.Results) == 0 {
		return 0, false
	}
	res := t.handle.Results
	return t.handle.Reached(int64(math.Ceil(0.9 * float64(res[len(res)-1].Partial.Count))))
}

// completeness is the query's final row count as a percentage of its
// predictor's expected total, for a query with results and a predictor.
func (t *tracked) completeness() (float64, bool) {
	if t.handle == nil || t.handle.Predictor == nil || len(t.handle.Results) == 0 {
		return 0, false
	}
	res := t.handle.Results
	if total := t.handle.Predictor.ExpectedTotal(); total > 0 {
		return 100 * float64(res[len(res)-1].Partial.Count) / total, true
	}
	return 0, false
}

// latency is the client-visible delay: arrival to 90% of the final
// result. Queries the scheduler never started are censored at end (the
// delay is the scheduler's doing). Queries that started but produced no
// updates failed for cluster-side reasons (e.g. the injector endsystem
// went down) and carry no latency sample — see ClassStats.Failed.
func (t *tracked) latency(end time.Duration) (time.Duration, bool) {
	if at, ok := t.t90(); ok {
		return at - t.arr.At, true
	}
	if t.started < 0 {
		return end - t.arr.At, true
	}
	return 0, false
}

func (s *Service) recordMetrics(t *tracked, now time.Duration) {
	class := t.class.String()
	if lat, ok := t.latency(now); ok {
		s.o.DurationHistogram("qserve_latency_" + class + "_ns").ObserveDuration(lat)
	}
	if t.started >= 0 {
		s.o.DurationHistogram("qserve_wait_" + class + "_ns").
			ObserveDuration(t.started - t.arr.At)
	}
	if pct, ok := t.completeness(); ok {
		s.o.Histogram("qserve_completeness_pct_" + class).Observe(int64(pct))
	}
}

// Run builds the configured cluster, drives the workload through a fresh
// query service, and reports per-class delay statistics. The report is a
// pure function of the config minus Cluster.Obs: it contains no wall
// timing, so equal configurations produce byte-identical reports.
func Run(cfg Config) *Report {
	c := core.NewCluster(cfg.Cluster)
	s := NewService(cfg, c)
	s.Schedule()
	c.RunUntil(cfg.Workload.End())
	return s.report()
}

// Variant names the configuration's ablation state for reports.
func (cfg Config) Variant() string {
	switch {
	case cfg.DisableAdmission && cfg.DisablePriority:
		return "ablate-both"
	case cfg.DisableAdmission:
		return "ablate-admission"
	case cfg.DisablePriority:
		return "ablate-priority"
	}
	return "full"
}

// ClassStats is one class's outcome summary. Times are virtual
// milliseconds; latency is arrival to 90% of the final result. Shed
// queries never ran and carry no latency. Censored queries were admitted
// but never dispatched by end of run — that delay is the scheduler's, so
// they are charged end-of-run latency. Failed queries started but
// streamed no results (injector churn, not scheduling) and are excluded
// from the latency distribution.
type ClassStats struct {
	Class             string  `json:"class"`
	Arrived           int     `json:"arrived"`
	Shed              int     `json:"shed"`
	Started           int     `json:"started"`
	Censored          int     `json:"censored"`
	Failed            int     `json:"failed"`
	ThroughputPerHour float64 `json:"throughput_per_hour"`
	LatencyP50MS      int64   `json:"latency_p50_ms"`
	LatencyP99MS      int64   `json:"latency_p99_ms"`
	WaitP50MS         int64   `json:"wait_p50_ms"`
	WaitP99MS         int64   `json:"wait_p99_ms"`
	MeanCompleteness  float64 `json:"mean_completeness_pct"`
}

// Report is one run's deterministic outcome.
type Report struct {
	Variant  string `json:"variant"`
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Queries  int    `json:"queries"`
	// PeakOpen is the maximum number of simultaneously open queries —
	// admitted and not yet retired — over the run: the concurrency the
	// service actually absorbed.
	PeakOpen int          `json:"peak_open"`
	Classes  []ClassStats `json:"classes"`
}

// Class returns the stats for a class name, or a zero value.
func (r *Report) Class(name string) ClassStats {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassStats{}
}

func (s *Service) report() *Report {
	end := s.cfg.Workload.End()
	rep := &Report{
		Variant:  s.cfg.Variant(),
		Workload: s.cfg.Workload.Name,
		N:        s.cfg.Cluster.Trace.NumEndsystems(),
		Seed:     s.cfg.Cluster.Seed,
		Queries:  len(s.all),
		PeakOpen: s.peakOpen,
	}
	for class := ClassID(0); class < NumClasses; class++ {
		var (
			st              ClassStats
			lats, waits     []time.Duration
			complSum        float64
			complN, done90s int
		)
		st.Class = class.String()
		for _, t := range s.all {
			if t.class != class {
				continue
			}
			st.Arrived++
			if t.shed {
				st.Shed++
				continue
			}
			if t.started >= 0 {
				st.Started++
				waits = append(waits, t.started-t.arr.At)
			}
			if _, ok := t.t90(); ok {
				done90s++
			} else if t.started >= 0 {
				st.Failed++
			} else {
				st.Censored++
			}
			if lat, ok := t.latency(end); ok {
				lats = append(lats, lat)
			}
			if pct, ok := t.completeness(); ok {
				complSum += pct
				complN++
			}
		}
		st.ThroughputPerHour = float64(done90s) / (float64(end-s.cfg.Workload.Start) / float64(time.Hour))
		st.LatencyP50MS = obs.Percentile(lats, 0.50).Milliseconds()
		st.LatencyP99MS = obs.Percentile(lats, 0.99).Milliseconds()
		st.WaitP50MS = obs.Percentile(waits, 0.50).Milliseconds()
		st.WaitP99MS = obs.Percentile(waits, 0.99).Milliseconds()
		if complN > 0 {
			st.MeanCompleteness = complSum / float64(complN)
		}
		rep.Classes = append(rep.Classes, st)
	}
	return rep
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "qserve %s workload=%s n=%d seed=%d queries=%d peak_open=%d\n",
		r.Variant, r.Workload, r.N, r.Seed, r.Queries, r.PeakOpen)
	fmt.Fprintf(w, "  %-12s %8s %6s %8s %9s %7s %8s %12s %12s %10s %10s %7s\n",
		"class", "arrived", "shed", "started", "censored", "failed", "qph",
		"lat_p50_ms", "lat_p99_ms", "wait_p50", "wait_p99", "compl%")
	for _, c := range r.Classes {
		fmt.Fprintf(w, "  %-12s %8d %6d %8d %9d %7d %8.1f %12d %12d %10d %10d %7.1f\n",
			c.Class, c.Arrived, c.Shed, c.Started, c.Censored, c.Failed, c.ThroughputPerHour,
			c.LatencyP50MS, c.LatencyP99MS, c.WaitP50MS, c.WaitP99MS, c.MeanCompleteness)
	}
}
