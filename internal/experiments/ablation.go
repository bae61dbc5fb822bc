package experiments

import (
	"io"
	"math"
	"time"

	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/model"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// These ablations quantify the design choices DESIGN.md calls out.

// ArityAblationResult compares dissemination-tree fan-outs: the paper
// describes a binary tree but implements a 2^b-ary one.
type ArityAblationResult struct {
	Arities          []int
	QueryBytes       []float64 // dissemination+prediction bytes per endsystem
	PredictorLatency []time.Duration
}

// AblationDissemArity injects the Figure 9 query under different
// subdivision arities and measures per-endsystem query bytes and predictor
// latency. Each arity is an independent simulation run on the engine.
func AblationDissemArity(s Scale, arities []int) *ArityAblationResult {
	r := &ArityAblationResult{Arities: arities}
	type point struct {
		bytes float64
		lat   time.Duration
	}
	runs := runSeries(s, len(arities), func(i int, sc Scale) point {
		trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(sc.PacketN, sc.PacketHorizon, sc.Seed))
		cfg := sc.clusterConfig(trace, sc.Seed)
		cfg.Node.Dissem.Arity = arities[i]
		c := core.NewCluster(cfg)
		injectAt := sc.PacketHorizon / 2
		c.RunUntil(injectAt)
		before := c.Net.Stats().TotalTx(simnet.ClassQuery)
		inj, _ := c.FirstLive()
		h := c.InjectQuery(inj, relq.MustParse(Fig9Query))
		c.RunUntil(injectAt + 10*time.Minute)
		after := c.Net.Stats().TotalTx(simnet.ClassQuery)
		pt := point{bytes: (after - before) / float64(sc.PacketN)}
		if h.Predictor != nil {
			pt.lat = h.PredictorAt - h.Injected
		}
		return pt
	})
	for _, pt := range runs {
		r.QueryBytes = append(r.QueryBytes, pt.bytes)
		r.PredictorLatency = append(r.PredictorLatency, pt.lat)
	}
	return r
}

// Render writes the comparison.
func (r *ArityAblationResult) Render(w io.Writer) {
	header(w, "Ablation: dissemination tree arity (binary vs 2^b-ary)",
		"arity", "query_bytes_per_endsystem", "predictor_latency")
	for i, a := range r.Arities {
		row(w, a, r.QueryBytes[i], r.PredictorLatency[i])
	}
}

// PredictorModeResult compares the availability-prediction modes.
type PredictorModeResult struct {
	Modes  []string
	MaxErr []float64 // max |prediction error| % over checkpoints
	AvgErr []float64
}

// AblationPredictorMode runs the Figure 5 experiment under the classifier
// (the paper's design), always-periodic, and always-duration prediction.
func AblationPredictorMode(s Scale) *PredictorModeResult {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.CompletenessN, s.Horizon, s.Seed))
	w := anemone.DefaultConfig(s.Horizon, s.Seed)
	w.MeanFlowsPerDay = s.FlowsPerDay
	base := core.CompletenessStudyConfig{
		Trace:     trace,
		Workload:  w,
		Queries:   []*relq.Query{relq.MustParse(Fig9Query)},
		InjectAts: []time.Duration{s.InjectAt()},
		Lifetime:  48 * time.Hour,
	}
	modes := []struct {
		name string
		mode avail.PredictionMode
	}{
		{"classified", avail.ModeAuto},
		{"always-periodic", avail.ModePeriodic},
		{"always-duration", avail.ModeDuration},
	}
	out := &PredictorModeResult{}
	type errs struct{ maxE, avgE float64 }
	runs := runSeries(s, len(modes), func(i int, sc Scale) errs {
		cfg := base
		cfg.Mode = modes[i].mode
		cfg.Obs = sc.Obs
		cfg.RunnerStats = sc.RunnerStats
		res := core.RunCompletenessStudy(cfg)[0][0]
		maxE, sumE, n := 0.0, 0.0, 0.0
		for _, d := range ErrorCheckpoints {
			e := math.Abs(res.PredictionErrorAt(d))
			if e > maxE {
				maxE = e
			}
			sumE += e
			n++
		}
		return errs{maxE: maxE, avgE: sumE / n}
	})
	for i, e := range runs {
		out.Modes = append(out.Modes, modes[i].name)
		out.MaxErr = append(out.MaxErr, e.maxE)
		out.AvgErr = append(out.AvgErr, e.avgE)
	}
	return out
}

// Render writes the comparison.
func (r *PredictorModeResult) Render(w io.Writer) {
	header(w, "Ablation: availability prediction mode (Figure 5 query)",
		"mode", "max_abs_err_pct", "avg_abs_err_pct")
	for i := range r.Modes {
		row(w, r.Modes[i], r.MaxErr[i], r.AvgErr[i])
	}
}

// HistogramAblationResult compares histogram kinds at equal bucket budget.
type HistogramAblationResult struct {
	Queries   []string
	StepErr   []float64 // step (SQL Server-style equi-depth) error %
	WidthErr  []float64 // equi-width error %
	StepSize  []int     // encoded bytes
	WidthSize []int
}

// AblationHistogram measures row-count estimation error of the two numeric
// histogram kinds on the paper's queries, averaged over several
// endsystems.
func AblationHistogram(s Scale) *HistogramAblationResult {
	w := anemone.DefaultConfig(s.Horizon, s.Seed)
	w.MeanFlowsPerDay = s.FlowsPerDay
	out := &HistogramAblationResult{}
	const sample = 40
	for _, spec := range PaperQueries {
		q := relq.MustParse(spec.SQL)
		if len(q.Preds) != 1 || q.Preds[0].Val.IsString {
			// The histogram ablation targets numeric predicates; App='SMB'
			// uses the frequency histogram in both designs.
			continue
		}
		pred := q.Preds[0]
		var stepErrSum, widthErrSum float64
		var stepSize, widthSize int
		n := 0
		for i := 0; i < sample; i++ {
			ds := anemone.Generate(w, i)
			tbl := ds.Flow
			col := tbl.Schema().ColumnIndex(pred.Col)
			if col < 0 {
				continue
			}
			values := tbl.ColumnValues(pred.Col)
			exact, err := tbl.CountMatching(q, 0)
			if err != nil || exact == 0 {
				continue
			}
			// ColumnValues already returned a caller-owned copy, so
			// BuildEquiDepth may sort it in place directly; BuildEquiWidth
			// is order-insensitive, so sharing the (sorted) slice is fine.
			width := histogram.BuildEquiWidth(values, relq.HistogramBuckets)
			step := histogram.BuildEquiDepth(values, relq.HistogramBuckets)
			stepErrSum += math.Abs(estimate(step, pred)-float64(exact)) / float64(exact)
			widthErrSum += math.Abs(estimate(width, pred)-float64(exact)) / float64(exact)
			stepSize += len(step.Encode(nil))
			widthSize += len(width.Encode(nil))
			n++
		}
		if n == 0 {
			continue
		}
		out.Queries = append(out.Queries, spec.SQL)
		out.StepErr = append(out.StepErr, 100*stepErrSum/float64(n))
		out.WidthErr = append(out.WidthErr, 100*widthErrSum/float64(n))
		out.StepSize = append(out.StepSize, stepSize/n)
		out.WidthSize = append(out.WidthSize, widthSize/n)
	}
	return out
}

// estimate evaluates a single predicate against a histogram.
func estimate(h histogram.Histogram, p relq.Pred) float64 {
	rhs := p.Val.Resolve(0)
	switch p.Op {
	case relq.OpEq:
		return h.EstimateEq(rhs)
	case relq.OpLt:
		return h.EstimateRange(math.MinInt64, rhs-1)
	case relq.OpLe:
		return h.EstimateRange(math.MinInt64, rhs)
	case relq.OpGt:
		return h.EstimateRange(rhs+1, math.MaxInt64)
	case relq.OpGe:
		return h.EstimateRange(rhs, math.MaxInt64)
	default:
		return 0
	}
}

// Render writes the comparison.
func (r *HistogramAblationResult) Render(w io.Writer) {
	header(w, "Ablation: histogram kind at equal bucket budget",
		"query", "step_err_pct", "width_err_pct", "step_bytes", "width_bytes")
	for i := range r.Queries {
		row(w, r.Queries[i], r.StepErr[i], r.WidthErr[i], r.StepSize[i], r.WidthSize[i])
	}
}

// PushPeriodResult sweeps the metadata push period.
type PushPeriodResult struct {
	Periods      []time.Duration
	ModelBytesPS []float64 // analytic systemwide maintenance B/s at paper scale
	SimMeanBPS   []float64 // measured per-online-endsystem B/s in a small cluster
}

// AblationPushPeriod quantifies the maintenance-bandwidth cost of the push
// period, analytically at paper scale and measured in a small cluster.
func AblationPushPeriod(s Scale, periods []time.Duration) *PushPeriodResult {
	out := &PushPeriodResult{Periods: periods}
	base := model.PaperDefaults()
	for _, period := range periods {
		p := base
		p.P = 1 / period.Seconds()
		out.ModelBytesPS = append(out.ModelBytesPS, model.MaintenanceOverhead(model.Seaweed, p))
	}
	out.SimMeanBPS = runSeries(s, len(periods), func(i int, sc Scale) float64 {
		trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(sc.PacketN, sc.PacketHorizon, sc.Seed))
		cfg := sc.clusterConfig(trace, sc.Seed)
		cfg.Node.Meta.PushPeriod = periods[i]
		c := core.NewCluster(cfg)
		c.RunUntil(sc.PacketHorizon)
		st := c.Net.Stats()
		stats := trace.ComputeStats()
		onlineSeconds := stats.MeanAvailability * float64(sc.PacketN) * sc.PacketHorizon.Seconds()
		return st.TotalTx(simnet.ClassMaintenance) / onlineSeconds
	})
	return out
}

// Render writes the sweep.
func (r *PushPeriodResult) Render(w io.Writer) {
	header(w, "Ablation: metadata push period",
		"period", "model_systemwide_Bps", "sim_per_online_endsystem_Bps")
	for i := range r.Periods {
		row(w, fmtDuration(r.Periods[i]), r.ModelBytesPS[i], r.SimMeanBPS[i])
	}
}

// VertexReplicaResult sweeps the aggregation-tree replica-group size m.
type VertexReplicaResult struct {
	Backups        []int
	ResultCoverage []float64 // fraction of submitted rows surviving the kill wave
	QueryBytes     []float64 // per-endsystem query-class bytes
}

// AblationVertexReplicas measures the exactly-once robustness bought by
// vertex replica groups: all endsystems submit, then 25% of them are
// killed, and the surviving fraction of the aggregate at the injector is
// recorded.
func AblationVertexReplicas(s Scale, backups []int) *VertexReplicaResult {
	out := &VertexReplicaResult{Backups: backups}
	type point struct {
		coverage float64
		bytes    float64
	}
	runs := runSeries(s, len(backups), func(i int, sc Scale) point {
		trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(sc.PacketN, sc.PacketHorizon, sc.Seed))
		cfg := sc.clusterConfig(trace, sc.Seed)
		cfg.Node.Agg.Backups = backups[i]
		c := core.NewCluster(cfg)
		injectAt := sc.PacketHorizon / 2
		c.RunUntil(injectAt)
		q := relq.MustParse("SELECT COUNT(*) FROM Flow")
		inj, _ := c.FirstLive()
		h := c.InjectQuery(inj, q)
		// Track the stream as it arrives instead of polling the handle:
		// `last` always holds the newest update once `seen` is true.
		var last core.ResultUpdate
		seen := false
		h.OnUpdate(func(u core.ResultUpdate) { last, seen = u, true })
		c.RunUntil(injectAt + 15*time.Minute)
		before, hadBefore := last, seen

		// Kill a quarter of the live endsystems (sparing the injector).
		killed := 0
		spare, _ := c.FirstLive()
		for i, n := range c.Nodes {
			if simnet.Endpoint(i) == spare {
				continue
			}
			if n.Alive() && killed < sc.PacketN/4 {
				n.GoDown()
				killed++
			}
		}
		c.RunUntil(c.Sched.Now() + 30*time.Minute)
		cov := 0.0
		if hadBefore && seen && before.Partial.Count > 0 {
			cov = float64(last.Partial.Count) / float64(before.Partial.Count)
		}
		st := c.Net.Stats()
		return point{coverage: cov, bytes: st.TotalTx(simnet.ClassQuery) / float64(sc.PacketN)}
	})
	for _, pt := range runs {
		out.ResultCoverage = append(out.ResultCoverage, pt.coverage)
		out.QueryBytes = append(out.QueryBytes, pt.bytes)
	}
	return out
}

// Render writes the sweep.
func (r *VertexReplicaResult) Render(w io.Writer) {
	header(w, "Ablation: aggregation-tree vertex replica groups (kill 25% after submit)",
		"backups_m", "result_coverage", "query_bytes_per_endsystem")
	for i := range r.Backups {
		row(w, r.Backups[i], r.ResultCoverage[i], r.QueryBytes[i])
	}
}
