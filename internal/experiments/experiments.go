// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each experiment is a function returning a typed
// result with a text rendering; the cmd/seaweed-* binaries are thin
// wrappers over this package.
//
// Experiments take a Scale so the same code serves both quick runs
// (the default CLI) and paper-scale runs (the --full flag of the
// CLI): absolute magnitudes shift with scale but the shape claims the
// paper makes are scale-stable.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Scale sets the size of the simulated deployments.
type Scale struct {
	// CompletenessN is the endsystem count for availability-level
	// completeness experiments (paper: 51,663).
	CompletenessN int
	// PacketN is the endsystem count for packet-level experiments
	// (paper: 20,000 for Figure 9(a,b), 8,000 for 9(c), up to 51,663 for
	// 9(d), 7,602 for Figure 10).
	PacketN int
	// Horizon is the trace length including warmup (paper: ~5 weeks).
	Horizon time.Duration
	// PacketHorizon is the simulated span for packet-level runs.
	PacketHorizon time.Duration
	// FlowsPerDay scales the synthetic Anemone workload.
	FlowsPerDay int
	// Seed drives all randomness.
	Seed int64
	// Obs, when set, is shared by every cluster and completeness run the
	// experiment performs: metrics accumulate across runs and any attached
	// tracer sees all their query lifecycles. Nil gives each cluster its
	// own metrics-only layer.
	Obs *obs.Obs
	// Workers bounds the deterministic worker pool fanning an
	// experiment's independent simulation runs across cores (0 =
	// GOMAXPROCS, 1 = serial). Results are identical at any value; an
	// attached tracer forces serial so the event stream stays whole.
	Workers int
	// RunnerStats, when non-nil, accumulates pool timing across every
	// experiment run through it (the sweep prints it).
	RunnerStats *runner.Stats
}

// runSeries executes n independent runs of an experiment through the
// deterministic pool and returns their values in run order. Each run
// receives a Scale to build its simulation from; when several runs
// proceed concurrently and a shared s.Obs exists, each run gets a
// private metrics layer instead (the shared registry is single-threaded)
// and the private registries are merged into s.Obs in run order, which
// keeps the final metrics deterministic. A tracer on s.Obs forces the
// series serial: trace events cannot be merged after the fact.
//
// Experiments are library calls with serial crash semantics, so a failed
// run re-panics here rather than returning a partial series.
func runSeries[T any](s Scale, n int, run func(i int, sc Scale) T) []T {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.Obs.Tracing() || s.Obs.Sampling() {
		// Neither trace events nor time-series samples can be merged after
		// the fact: both are ordered streams on the shared layer.
		workers = 1
	}
	// One run at a time on the shared layer: event order and metrics
	// match a plain loop exactly.
	serialShared := s.Obs != nil && (workers == 1 || n == 1)
	perRun := make([]*obs.Obs, n)
	out := runner.Run(runner.Config{Workers: workers, Stats: s.RunnerStats}, n,
		func(i int) T {
			sc := s
			if !serialShared && s.Obs != nil {
				perRun[i] = obs.New()
				sc.Obs = perRun[i]
			}
			return run(i, sc)
		})
	if !serialShared && s.Obs != nil {
		for _, po := range perRun {
			s.Obs.Registry().Merge(po.Registry())
		}
	}
	return out
}

// clusterConfig returns the packet-level configuration every experiment
// starts from: the paper's defaults on the trace, with the scale's
// observability layer and workload size.
func (s Scale) clusterConfig(trace *avail.Trace, seed int64) core.ClusterConfig {
	cfg := core.DefaultClusterConfig(trace, seed)
	cfg.Obs = s.Obs
	cfg.Workload.MeanFlowsPerDay = s.FlowsPerDay
	return cfg
}

// QuickScale returns a scale suitable for tests and fast CLI runs:
// minutes of wall-clock in total across all experiments.
func QuickScale() Scale {
	return Scale{
		CompletenessN: 2000,
		PacketN:       400,
		Horizon:       4 * avail.Week,
		PacketHorizon: 3 * 24 * time.Hour,
		FlowsPerDay:   100,
		Seed:          1,
	}
}

// FullScale approaches the paper's deployment sizes. Packet-level runs at
// these sizes take tens of minutes of wall-clock time.
func FullScale() Scale {
	return Scale{
		CompletenessN: 51663,
		PacketN:       16000,
		Horizon:       5 * avail.Week,
		PacketHorizon: 2 * avail.Week,
		FlowsPerDay:   200,
		Seed:          1,
	}
}

// InjectAt returns the standard injection instant: the Tuesday midnight of
// the trace's final full week, leaving everything before it as model
// warmup (the paper injects on Tuesday 20th July 1999 at 00:00 after a
// two-week warmup).
func (s Scale) InjectAt() time.Duration {
	return s.Horizon - avail.Week + avail.Day
}

// row prints one aligned data row.
func row(w io.Writer, cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(w, "%.4g", v)
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}

// header prints a commented header line.
func header(w io.Writer, title string, cols ...string) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprint(w, "# ")
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// fmtDuration renders durations compactly for tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Minute:
		return fmt.Sprintf("%.0fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%.0fm", d.Minutes())
	default:
		return fmt.Sprintf("%.3gh", d.Hours())
	}
}
