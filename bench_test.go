// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced scale (wall-clock seconds rather than the hours a paper-scale
// run takes; use cmd/seaweed-sim -full for those) and reports the
// headline metric of the figure through b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a one-shot reproduction sweep.
// EXPERIMENTS.md records paper-vs-measured for every entry.
package seaweed

import (
	"math"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/experiments"
	"repro/internal/model"
)

// benchScale is the shared reduced scale for simulation benchmarks.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.CompletenessN = 1000
	s.PacketN = 150
	s.PacketHorizon = 2 * 24 * time.Hour
	s.FlowsPerDay = 50
	return s
}

func BenchmarkFig1_AvailabilityTrace(b *testing.B) {
	s := benchScale()
	var mean float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(s)
		mean = r.Stats.MeanAvailability
	}
	b.ReportMetric(mean, "mean-availability")
}

func BenchmarkFig2_ExamplePredictor(b *testing.B) {
	s := benchScale()
	var immediate float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(s)
		if r.Pred != nil {
			immediate = r.Pred.CompletenessBy(0)
		}
	}
	b.ReportMetric(100*immediate, "pct-immediate")
}

func BenchmarkTable2_PIERAvailability(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table2()
		v = r.Gnutella[2]
	}
	b.ReportMetric(100*v, "pct-gnutella-12h")
}

// benchSweep runs one analytic sweep panel and reports Seaweed's advantage
// over the nearest competitor at the last sweep point.
func benchSweep(b *testing.B, mk func(model.Params) *experiments.SweepResult) {
	b.Helper()
	base := model.PaperDefaults()
	var advantage float64
	for i := 0; i < b.N; i++ {
		r := mk(base)
		last := len(r.Values) - 1
		sw := r.Overhead[1][last]
		best := math.Inf(1)
		for d := range r.Designs {
			if d != 1 && r.Overhead[d][last] < best {
				best = r.Overhead[d][last]
			}
		}
		advantage = best / sw
	}
	b.ReportMetric(advantage, "seaweed-advantage-x")
}

func BenchmarkFig3a_ScaleWithN(b *testing.B) { benchSweep(b, experiments.Fig3a) }
func BenchmarkFig3b_ScaleWithU(b *testing.B) { benchSweep(b, experiments.Fig3b) }
func BenchmarkFig3c_ScaleWithD(b *testing.B) { benchSweep(b, experiments.Fig3c) }
func BenchmarkFig3d_ScaleWithC(b *testing.B) { benchSweep(b, experiments.Fig3d) }

func BenchmarkFig4_SmallData(b *testing.B) {
	var centralizedWins float64
	for i := 0; i < b.N; i++ {
		panels := experiments.Fig4()
		a := panels[0]
		if a.Overhead[0][0] < a.Overhead[1][0] {
			centralizedWins = 1
		}
	}
	b.ReportMetric(centralizedWins, "centralized-wins-at-low-u")
}

// benchCompleteness runs one of Figures 5-8 and reports the maximum
// absolute prediction error across all panels (the paper's <5% claim).
func benchCompleteness(b *testing.B, qi int) {
	b.Helper()
	s := benchScale()
	var maxErr float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunCompletenessFigure(s, qi)
		maxErr = f.MaxAbsError()
	}
	b.ReportMetric(maxErr, "max-abs-err-pct")
}

func BenchmarkFig5_HTTPBytes(b *testing.B) { benchCompleteness(b, 0) }
func BenchmarkFig6_BigFlows(b *testing.B)  { benchCompleteness(b, 1) }
func BenchmarkFig7_SMBAvg(b *testing.B)    { benchCompleteness(b, 2) }
func BenchmarkFig8_PrivPorts(b *testing.B) { benchCompleteness(b, 3) }

func BenchmarkFig9a_OverheadTimeline(b *testing.B) {
	s := benchScale()
	var mean float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9a(s)
		mean = r.MeanTotalPerOnline
	}
	b.ReportMetric(mean, "Bps-per-online-endsystem")
}

func BenchmarkFig9b_LoadCDF(b *testing.B) {
	s := benchScale()
	var p99 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9b(s)
		p99 = r.Tx.P99
	}
	b.ReportMetric(p99, "p99-Bps")
}

func BenchmarkFig9c_IDAssignment(b *testing.B) {
	s := benchScale()
	s.PacketN = 100
	s.PacketHorizon = 24 * time.Hour
	var gap float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9c(s, []int64{11, 22, 33})
		gap = r.MaxMeanGap
	}
	b.ReportMetric(gap, "max-mean-gap-Bps")
}

func BenchmarkFig9d_OverheadVsN(b *testing.B) {
	s := benchScale()
	s.PacketHorizon = 24 * time.Hour
	var latencyMS float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig9d(s, []int{50, 100, 200})
		latencyMS = float64(pts[len(pts)-1].PredictorLatency.Milliseconds())
	}
	b.ReportMetric(latencyMS, "predictor-latency-ms")
}

func BenchmarkFig10_HighChurn(b *testing.B) {
	s := benchScale()
	var ratio float64
	for i := 0; i < b.N; i++ {
		high := experiments.Fig10(s)
		low := experiments.Fig9a(s)
		ratio = high.Timeline.MeanTotalPerOnline / low.MeanTotalPerOnline
	}
	b.ReportMetric(ratio, "overhead-ratio-vs-farsite")
}

// ----------------------------------------------------------- ablations

func BenchmarkAblationDissemArity(b *testing.B) {
	s := benchScale()
	var binaryOverSixteen float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationDissemArity(s, []int{2, 16})
		if r.QueryBytes[1] > 0 {
			binaryOverSixteen = r.QueryBytes[0] / r.QueryBytes[1]
		}
	}
	b.ReportMetric(binaryOverSixteen, "binary-vs-16ary-bytes-x")
}

func BenchmarkAblationPredictorMode(b *testing.B) {
	s := benchScale()
	var classifiedErr float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPredictorMode(s)
		classifiedErr = r.MaxErr[0]
	}
	b.ReportMetric(classifiedErr, "classified-max-err-pct")
}

func BenchmarkAblationHistogram(b *testing.B) {
	s := benchScale()
	var worstStep float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationHistogram(s)
		worstStep = 0
		for _, e := range r.StepErr {
			if e > worstStep {
				worstStep = e
			}
		}
	}
	b.ReportMetric(worstStep, "step-hist-worst-err-pct")
}

func BenchmarkAblationPushPeriod(b *testing.B) {
	s := benchScale()
	s.PacketN = 80
	s.PacketHorizon = 24 * time.Hour
	var spread float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPushPeriod(s,
			[]time.Duration{5 * time.Minute, 17*time.Minute + 30*time.Second, time.Hour})
		spread = r.SimMeanBPS[0] / r.SimMeanBPS[len(r.SimMeanBPS)-1]
	}
	b.ReportMetric(spread, "5min-vs-1h-bandwidth-x")
}

func BenchmarkAblationVertexReplicas(b *testing.B) {
	s := benchScale()
	s.PacketN = 80
	s.PacketHorizon = 24 * time.Hour
	var covNoBackups, covThree float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationVertexReplicas(s, []int{0, 3})
		covNoBackups, covThree = r.ResultCoverage[0], r.ResultCoverage[1]
	}
	b.ReportMetric(covNoBackups, "coverage-m0")
	b.ReportMetric(covThree, "coverage-m3")
}

func BenchmarkAblationDeltaPush(b *testing.B) {
	s := benchScale()
	s.PacketN = 60
	s.PacketHorizon = 24 * time.Hour
	var saving float64
	for i := 0; i < b.N; i++ {
		saving = experiments.AblationDeltaPush(s).Saving()
	}
	b.ReportMetric(100*saving, "delta-saving-pct")
}

// BenchmarkObsOverhead measures the cost of the default-on observability
// layer: the Figure 9(a) run with metrics collected versus the same run
// with the layer disabled (every instrumentation site degrading to a
// nil-handle no-op). The reported obs-overhead-pct must stay under 5%.
func BenchmarkObsOverhead(b *testing.B) {
	s := benchScale()
	off := s
	off.NoObs = true
	var withObs, withoutObs time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		experiments.Fig9a(s)
		withObs += time.Since(start)
		start = time.Now()
		experiments.Fig9a(off)
		withoutObs += time.Since(start)
	}
	overhead := 100 * (withObs - withoutObs).Seconds() / withoutObs.Seconds()
	b.ReportMetric(overhead, "obs-overhead-pct")
}

// ----------------------------------------------- microbenchmarks

func BenchmarkMicroTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		avail.GenerateFarsite(avail.DefaultFarsiteConfig(1000, 2*avail.Week, int64(i)))
	}
}

func BenchmarkMicroCompletenessSim(b *testing.B) {
	s := benchScale()
	trace := FarsiteTrace(s.CompletenessN, s.Horizon, s.Seed)
	w := DefaultAnemoneConfig(s.Horizon, s.Seed)
	w.MeanFlowsPerDay = s.FlowsPerDay
	q := MustParseQuery("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCompleteness(CompletenessConfig{
			Trace: trace, Workload: w, Query: q,
			InjectAt: s.InjectAt(), Lifetime: 48 * time.Hour,
		})
	}
}

func BenchmarkMicroClusterDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := FarsiteTrace(100, 24*time.Hour, int64(i))
		c := New(WithTrace(trace), WithSeed(int64(i)), WithFlowsPerDay(30))
		c.RunUntil(24 * time.Hour)
	}
}
