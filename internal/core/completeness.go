package core

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/dissem"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/runner"
)

// minUpTime is the continuous uptime an endsystem needs to receive and
// process a query (the H_U "sufficient time" of §2.3).
const minUpTime = 30 * time.Second

// CompletenessStudyConfig parameterizes the availability-level simulator
// used for the paper's Figures 5–8. As in the paper, this simulator
// "correctly captures the effect of availability on completeness but does
// not do packet-level simulation": prediction uses each endsystem's
// learned availability model and replicated histogram estimates, and the
// actual result stream is derived directly from the availability trace.
//
// A study is several queries and several injection times evaluated over
// one shared trace and workload. The per-endsystem datasets — the
// expensive part — are generated once and shared by every (query,
// injection) cell, and all cells execute through the deterministic
// parallel runner.
type CompletenessStudyConfig struct {
	Trace    *avail.Trace
	Workload anemone.Config
	Queries  []*relq.Query
	// InjectAts are the query injection instants. The part of the trace
	// preceding each is the warmup from which availability models are
	// learned.
	InjectAts []time.Duration
	// Lifetime is how long a query runs before it is terminated (the
	// paper uses 48 hours). The output curves are sampled at
	// DefaultSampleDelays(Lifetime).
	Lifetime time.Duration
	// Parallelism bounds the worker goroutines of the deterministic
	// runner executing the study (0 = GOMAXPROCS). Results are
	// byte-identical regardless.
	Parallelism int
	// Mode forces the availability-prediction mode (ablation); the zero
	// value is the paper's classifier-driven behaviour.
	Mode avail.PredictionMode
	// Obs is the observability layer; nil disables it for this simulator
	// (the experiment harness supplies a shared one). Events are emitted
	// only from the single-threaded observation step that runs after the
	// parallel phases — the parallel workers never touch it.
	Obs *obs.Obs
	// RunnerStats, when non-nil, accumulates the worker pool's
	// timing (a sweep prints it).
	RunnerStats *runner.Stats
}

// CompletenessResult is the outcome of one completeness experiment.
type CompletenessResult struct {
	// Predicted is the aggregated completeness predictor generated at
	// injection time.
	Predicted *predictor.Predictor
	// Delays are the observation points (time since injection).
	Delays []time.Duration
	// PredictedRows[i] is the predictor's expected cumulative row count at
	// Delays[i]; ActualRows[i] is the true cumulative count of rows on
	// endsystems that had become available (for at least minUpTime) by
	// then.
	PredictedRows []float64
	ActualRows    []float64
	// TotalRelevantRows is the exact number of matching rows across every
	// endsystem, available or not.
	TotalRelevantRows int64
	// RowsWithinLifetime is the portion of TotalRelevantRows on
	// endsystems that became available within the query lifetime.
	RowsWithinLifetime int64

	// arrivals holds (delay, cumulativeRows) breakpoints of the exact
	// actual-result step function, sorted by delay.
	arrivalDelays []time.Duration
	arrivalCum    []float64
}

// ActualRowsAt returns the exact cumulative actual row count at the given
// delay since injection.
func (r *CompletenessResult) ActualRowsAt(delay time.Duration) float64 {
	i := sort.Search(len(r.arrivalDelays), func(i int) bool {
		return r.arrivalDelays[i] > delay
	})
	if i == 0 {
		return 0
	}
	return r.arrivalCum[i-1]
}

// PredictionErrorAt returns the relative prediction error (in percent) at
// the given delay: 100 × (predicted − actual) / actual.
func (r *CompletenessResult) PredictionErrorAt(delay time.Duration) float64 {
	pred := r.Predicted.RowsBy(delay)
	actual := r.ActualRowsAt(delay)
	if actual == 0 {
		return 0
	}
	return 100 * (pred - actual) / actual
}

// TotalRowCountError returns the relative error (percent) of the
// predictor's expected total against the true total relevant rows — the
// paper reports this under 0.5%.
func (r *CompletenessResult) TotalRowCountError() float64 {
	if r.TotalRelevantRows == 0 {
		return 0
	}
	return 100 * (r.Predicted.ExpectedTotal() - float64(r.TotalRelevantRows)) /
		float64(r.TotalRelevantRows)
}

// endsystemOutcome is the per-endsystem availability-dependent
// intermediate of the simulation; it does not depend on the query.
type endsystemOutcome struct {
	// availability at injection, or the first instant after injection at
	// which the endsystem has been up minUpTime (availAtValid false if
	// never within the lifetime).
	availAt      time.Duration
	availAtValid bool
	upAtInject   bool
	// model prediction inputs for unavailable endsystems.
	model     *avail.Model
	downSince time.Duration
	everUp    bool
}

// rowEst is the per-(endsystem, query) data-dependent intermediate: the
// exact matching row count and the histogram-based estimate.
type rowEst struct {
	rows int64
	est  float64
}

// RunCompletenessStudy evaluates every (query, injection) pair of the
// study and returns the results indexed [query][injection].
//
// Execution is phased through the deterministic parallel runner, and the
// results are byte-identical at any Parallelism:
//
//  1. per-endsystem datasets are generated once (shared across queries
//     AND injections — the data does not depend on when a query is
//     injected, so the paper's Figure 5(b)/(c) day/time sweeps reuse it),
//     with exact counts and histogram estimates for every query;
//  2. per-injection availability outcomes are computed once (shared
//     across queries — availability does not depend on what is asked);
//  3. every (query, injection) cell is assembled from the two;
//  4. observability events are emitted serially, in cell order, after
//     the parallel phases (the shared Obs layer is single-threaded).
//
// A panic inside a phase surfaces as a panic here (library semantics),
// not as a silently missing cell.
func RunCompletenessStudy(cfg CompletenessStudyConfig) [][]*CompletenessResult {
	n := cfg.Trace.NumEndsystems()
	nq, ni := len(cfg.Queries), len(cfg.InjectAts)
	if nq == 0 || ni == 0 {
		return nil
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// NOW() binds against the first injection's clock; the four evaluation
	// queries carry no NOW(), so this only matters for explicitly
	// time-windowed queries, which should be run one injection at a time.
	nowSecs0 := int64(cfg.InjectAts[0] / time.Second)
	bound := make([]*relq.Query, nq)
	for q, query := range cfg.Queries {
		bound[q] = query.BindNow(nowSecs0)
	}

	// Phase 1: datasets, exact counts and estimates, once per endsystem.
	rowsEst := make([][]rowEst, nq)
	for q := range rowsEst {
		rowsEst[q] = make([]rowEst, n)
	}
	runner.ForEach(n, workers, func(i int) {
		ds := anemone.Generate(cfg.Workload, i)
		sum := ds.Summary()
		for q, bq := range bound {
			if cnt, err := ds.Flow.CountMatching(bq, nowSecs0); err == nil {
				rowsEst[q][i].rows = cnt
			}
			rowsEst[q][i].est = sum.EstimateRows(bq, nowSecs0)
		}
	})

	// Phase 2: availability outcomes per injection, through the pool —
	// each run owns its outcome slice; inner per-endsystem loops use the
	// leftover worker budget so a single-injection study still fans out.
	inner := max(1, workers/ni)
	outcomes := runner.Run(runner.Config{Workers: workers, Stats: cfg.RunnerStats}, ni,
		func(j int) []endsystemOutcome {
			out := make([]endsystemOutcome, n)
			runner.ForEach(n, inner, func(i int) {
				out[i] = evalAvailability(cfg.Trace, cfg.InjectAts[j], cfg.Lifetime, i)
			})
			return out
		})

	// Phase 3: assemble every (query, injection) cell.
	results := make([][]*CompletenessResult, nq)
	for q := range results {
		results[q] = make([]*CompletenessResult, ni)
	}
	runner.ForEach(nq*ni, workers, func(cell int) {
		q, j := cell/ni, cell%ni
		results[q][j] = assemble(cfg, cfg.InjectAts[j], outcomes[j], rowsEst[q])
	})

	// Phase 4: observe serially, in cell order, on the shared layer.
	if cfg.Obs != nil {
		for q := range results {
			for j := range results[q] {
				observeCompleteness(cfg, cfg.Queries[q], cfg.InjectAts[j], results[q][j])
			}
		}
	}
	return results
}

// evalAvailability computes one endsystem's availability-dependent
// outcome: its learned model, its state at injection, and when its rows
// join the result.
func evalAvailability(trace *avail.Trace, injectAt, lifetime time.Duration, i int) endsystemOutcome {
	out := endsystemOutcome{}
	p := trace.Profiles[i]

	out.model = avail.LearnModel(p, injectAt)
	// Availability state at injection.
	out.upAtInject = p.AvailableAt(injectAt)
	for _, iv := range p.Up {
		if iv.End <= injectAt {
			out.everUp = true
			out.downSince = iv.End
		}
		if iv.Start <= injectAt {
			continue
		}
		break
	}
	if out.upAtInject {
		out.everUp = true
	}

	// When do this endsystem's rows actually join the result?
	deadline := injectAt + lifetime
	if out.upAtInject {
		out.availAt, out.availAtValid = injectAt, true
		return out
	}
	for _, iv := range p.Up {
		start := iv.Start
		if start < injectAt {
			continue
		}
		if start+minUpTime <= iv.End && start+minUpTime <= deadline {
			out.availAt, out.availAtValid = start+minUpTime, true
			return out
		}
	}
	return out
}

// assemble aggregates the per-endsystem outcomes and per-endsystem row
// data into one (query, injection) experiment result.
func assemble(cfg CompletenessStudyConfig, injectAt time.Duration,
	outcomes []endsystemOutcome, rowsEst []rowEst) *CompletenessResult {
	res := &CompletenessResult{Predicted: &predictor.Predictor{}}

	for i := range outcomes {
		o := &outcomes[i]
		re := &rowsEst[i]
		res.TotalRelevantRows += re.rows
		if o.availAtValid {
			res.RowsWithinLifetime += re.rows
		}
		switch {
		case o.upAtInject:
			res.Predicted.AddImmediate(re.est)
		case o.everUp:
			// Unavailable but previously seen: its replicated metadata
			// provides the estimate and the availability model.
			res.Predicted.AddModelMode(cfg.Mode, o.model, injectAt, o.downSince, re.est)
		default:
			// Never available before injection: no metadata exists
			// anywhere, so the predictor cannot account for it (the
			// H_U(-∞, 0) lower bound of §2.3).
		}
	}

	// Build the exact actual-arrival step function.
	type arrival struct {
		delay time.Duration
		rows  float64
	}
	var arr []arrival
	for i := range outcomes {
		o := &outcomes[i]
		if o.availAtValid && rowsEst[i].rows > 0 {
			arr = append(arr, arrival{delay: o.availAt - injectAt, rows: float64(rowsEst[i].rows)})
		}
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].delay < arr[j].delay })
	cum := 0.0
	for _, a := range arr {
		cum += a.rows
		res.arrivalDelays = append(res.arrivalDelays, a.delay)
		res.arrivalCum = append(res.arrivalCum, cum)
	}

	delays := DefaultSampleDelays(cfg.Lifetime)
	res.Delays = delays
	res.PredictedRows = make([]float64, len(delays))
	res.ActualRows = make([]float64, len(delays))
	for j, d := range delays {
		res.PredictedRows[j] = res.Predicted.RowsBy(d)
		res.ActualRows[j] = res.ActualRowsAt(d)
	}
	return res
}

// observeCompleteness reports one completeness run to the observability
// layer. This simulator has no scheduler, so events carry explicit
// virtual timestamps (EmitAt) reconstructed from the arrival step
// function, and EP is -1 (no endsystem-level attribution exists at this
// abstraction level). It runs only on the single-threaded observation
// pass, after the parallel phases.
func observeCompleteness(cfg CompletenessStudyConfig, query *relq.Query,
	injectAt time.Duration, res *CompletenessResult) {
	o := cfg.Obs
	if o == nil {
		return
	}
	qid := dissem.QueryID(query, injectAt).Short()
	total := res.Predicted.ExpectedTotal()

	o.EmitAt(injectAt, obs.Event{Kind: obs.KindInject, Query: qid, EP: -1})
	o.EmitAt(injectAt, obs.Event{Kind: obs.KindPredict, Query: qid, EP: -1, V: total})
	for i, d := range res.arrivalDelays {
		o.EmitAt(injectAt+d, obs.Event{Kind: obs.KindPartial, Query: qid,
			EP: -1, N: int64(i + 1), V: res.arrivalCum[i]})
	}
	o.EmitAt(injectAt+cfg.Lifetime, obs.Event{Kind: obs.KindComplete, Query: qid,
		EP: -1, N: int64(len(res.arrivalDelays))})

	if len(res.arrivalDelays) > 0 {
		o.DurationHistogram("query_time_to_first_result_ns").
			ObserveDuration(res.arrivalDelays[0])
	}
	if total > 0 {
		for _, p := range []struct {
			frac float64
			name string
		}{{0.50, "query_time_to_50pct_ns"}, {0.90, "query_time_to_90pct_ns"},
			{0.99, "query_time_to_99pct_ns"}} {
			for i, cum := range res.arrivalCum {
				if cum >= p.frac*total {
					o.DurationHistogram(p.name).ObserveDuration(res.arrivalDelays[i])
					break
				}
			}
		}
	}
}

// DefaultSampleDelays returns log-spaced observation delays from zero to
// the lifetime, matching the paper's 1–32 h log-axis plots.
func DefaultSampleDelays(lifetime time.Duration) []time.Duration {
	delays := []time.Duration{0}
	for d := time.Minute; d < lifetime; d *= 2 {
		delays = append(delays, d)
	}
	return append(delays, lifetime)
}
