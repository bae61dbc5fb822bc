package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// never stands for a delay a run never reached: it ranks above every
// finite sample and renders as "never".
const never = time.Duration(math.MaxInt64)

// PairedRun is what one run of a paired study reports: named delay
// samples, named values and whether the run passed its own checks.
type PairedRun struct {
	Samples map[string][]time.Duration
	Values  map[string]float64
	OK      bool
}

// PairedResult holds a paired study's runs and their per-arm aggregates.
type PairedResult struct {
	Title string
	Arms  []string
	Seeds []int64
	Runs  [][]PairedRun // Runs[i][a] is seed i in arm a
	// Pooled[a][name] is arm a's samples of name across every seed, and
	// Means[a][name] the per-run mean of its value name.
	Pooled []map[string][]time.Duration
	Means  []map[string]float64
}

// PairedStudy runs every seed once per arm. The arms of one seed share
// everything the run function does not vary by arm, so the comparison
// isolates the arm. Runs fan out across workers through the deterministic
// engine; the result is identical at any worker count.
func PairedStudy(title string, arms []string, seeds []int64, workers int,
	run func(seed int64, arm int) PairedRun) *PairedResult {
	flat := runSeries(Scale{Workers: workers}, len(seeds)*len(arms), func(i int, _ Scale) PairedRun {
		return run(seeds[i/len(arms)], i%len(arms))
	})
	r := &PairedResult{Title: title, Arms: arms, Seeds: seeds}
	for i := range seeds {
		r.Runs = append(r.Runs, flat[i*len(arms):(i+1)*len(arms)])
	}
	for a := range arms {
		pooled, means := map[string][]time.Duration{}, map[string]float64{}
		for _, runs := range r.Runs {
			for name, s := range runs[a].Samples {
				pooled[name] = append(pooled[name], s...)
			}
			for name, v := range runs[a].Values {
				means[name] += v / float64(len(seeds))
			}
		}
		r.Pooled, r.Means = append(r.Pooled, pooled), append(r.Means, means)
	}
	return r
}

// Quantile returns the q-quantile of arm a's pooled samples of name.
func (r *PairedResult) Quantile(a int, name string, q float64) time.Duration {
	return obs.Percentile(r.Pooled[a][name], q)
}

// Render writes one table, a column per arm: each delay's sample count and
// p50 / p90 / p99, each value's per-run mean, and the runs that passed.
func (r *PairedResult) Render(w io.Writer) {
	header(w, fmt.Sprintf("%s: %d paired seeds", r.Title, len(r.Seeds)), append([]string{"metric"}, r.Arms...)...)
	line := func(metric string, cell func(a int) any) {
		cells := []any{metric}
		for a := range r.Arms {
			cells = append(cells, cell(a))
		}
		row(w, cells...)
	}
	for _, name := range unionKeys(r.Pooled) {
		line(name+"_n", func(a int) any { return len(r.Pooled[a][name]) })
		for _, p := range []int{50, 90, 99} {
			line(fmt.Sprintf("%s_p%d", name, p), func(a int) any { return fmtDelay(r.Quantile(a, name, float64(p)/100)) })
		}
	}
	for _, name := range unionKeys(r.Means) {
		line(name+"_mean", func(a int) any { return r.Means[a][name] })
	}
	line("ok_runs", func(a int) any {
		ok := 0
		for _, runs := range r.Runs {
			if runs[a].OK {
				ok++
			}
		}
		return ok
	})
}

// unionKeys returns the keys of every map in ms, sorted.
func unionKeys[V any](ms []map[string]V) []string {
	set := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fmtDelay renders a delay to four significant digits.
func fmtDelay(d time.Duration) string {
	if d == never {
		return "never"
	}
	unit := time.Duration(1)
	for d/unit >= 10000 {
		unit *= 10
	}
	return d.Round(unit).String()
}

// HedgeStudy pairs straggler scenario runs (slow region cohorts, a burst
// loss episode and a duplication window) with the re-assertion ladder on
// and ablated. The ladder shifts the loss draws, so the comparison is
// across seeds, not message for message. A run reports "complete", its
// time from injection to 100% of ground truth, and its sends,
// re-assertions, final rows and fault invariants.
func HedgeStudy(seeds []int64, smoke bool, workers int) *PairedResult {
	scen, ok := fault.Builtin("straggler", smoke)
	if !ok {
		panic("straggler scenario missing")
	}
	return PairedStudy("Re-assertion ladder: straggler + burst loss", []string{"ladder", "ablated"}, seeds, workers,
		func(seed int64, arm int) PairedRun {
			cfg := core.DefaultChaosConfig(scen, seed, smoke)
			cfg.Cluster.Node.Agg.Reassert = arm == 0
			rep := core.RunChaos(cfg)
			q := rep.Queries[0]
			if q.TimeToComplete < 0 {
				q.TimeToComplete = never
			}
			return PairedRun{
				Samples: map[string][]time.Duration{"complete": {q.TimeToComplete}},
				Values: map[string]float64{"net_sends": float64(rep.Hedges.NetSends),
					"reasserts": float64(rep.Hedges.Reasserts), "final_rows": float64(q.FinalRows)},
				OK: rep.OK(),
			}
		})
}
