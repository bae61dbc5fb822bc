package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// HedgePair is one paired-seed comparison of the straggler chaos scenario:
// the identical (scenario, seed) run twice, with the aggregation tree's
// re-assertion ladder on ("hedged") and ablated. The pairing isolates the
// ladder — everything else about the two runs is the same configuration
// (its retransmissions do shift the per-message loss draws, so the
// comparison is statistical across seeds, not message-for-message).
type HedgePair struct {
	Seed int64 `json:"seed"`
	// Time from query injection to the first 100%-complete result, -1 if
	// the run never completed (it still must pass eventual completeness).
	HedgedComplete  time.Duration `json:"hedged_complete_ns"`
	AblatedComplete time.Duration `json:"ablated_complete_ns"`
	HedgedSends     int64         `json:"hedged_net_sends"`
	AblatedSends    int64         `json:"ablated_net_sends"`
	Reasserts       int64         `json:"reasserts"`
	HedgedOK        bool          `json:"hedged_ok"`
	AblatedOK       bool          `json:"ablated_ok"`
	// RowsEqual: both runs converged to the same final row count (they
	// share ground truth, so this is exactly-once agreeing across modes).
	RowsEqual bool `json:"final_rows_equal"`
}

// HedgeStudyResult aggregates the paired runs into the numbers the
// acceptance gate checks: tail completion time (hedged must strictly beat
// ablated at p99) and message overhead (at most a few percent extra).
type HedgeStudyResult struct {
	Smoke          bool          `json:"smoke"`
	Pairs          []HedgePair   `json:"pairs"`
	HedgedP99      time.Duration `json:"hedged_p99_complete_ns"`
	AblatedP99     time.Duration `json:"ablated_p99_complete_ns"`
	HedgedSends    int64         `json:"hedged_net_sends"`
	AblatedSends   int64         `json:"ablated_net_sends"`
	SendsRatio     float64       `json:"hedged_to_ablated_sends_ratio"`
	TotalReasserts int64         `json:"total_reasserts"`
}

// HedgeStudy runs the straggler scenario (per-region slow cohorts layered
// with a correlated burst-loss episode and a duplication window) once per
// seed with the ladder on and once with it ablated. Pairs fan out across
// workers through the deterministic engine; the result is identical at any
// worker count.
func HedgeStudy(seeds []int64, smoke bool, workers int) *HedgeStudyResult {
	scen, ok := fault.Builtin("straggler", smoke)
	if !ok {
		panic("straggler scenario missing")
	}
	// Run 2i is seed i with the ladder on, run 2i+1 the same seed ablated.
	runs := runSeries(Scale{Workers: workers}, 2*len(seeds), func(i int, _ Scale) *fault.Report {
		cfg := core.ChaosConfig{Scenario: scen, Seed: seeds[i/2], DisableReassert: i%2 == 1}
		if smoke {
			cfg.N = 60
			cfg.Settle = 5 * time.Minute
		}
		return core.RunChaos(cfg)
	})

	out := &HedgeStudyResult{Smoke: smoke}
	for i, seed := range seeds {
		h, a := runs[2*i], runs[2*i+1]
		p := HedgePair{
			Seed:            seed,
			HedgedComplete:  h.Queries[0].TimeToComplete,
			AblatedComplete: a.Queries[0].TimeToComplete,
			HedgedSends:     h.Hedges.NetSends,
			AblatedSends:    a.Hedges.NetSends,
			Reasserts:       h.Hedges.Reasserts,
			HedgedOK:        h.OK(),
			AblatedOK:       a.OK(),
			RowsEqual:       h.Queries[0].FinalRows == a.Queries[0].FinalRows,
		}
		out.Pairs = append(out.Pairs, p)
		out.HedgedSends += p.HedgedSends
		out.AblatedSends += p.AblatedSends
		out.TotalReasserts += p.Reasserts
	}
	out.HedgedP99 = completionQuantile(out.Pairs, 0.99, false)
	out.AblatedP99 = completionQuantile(out.Pairs, 0.99, true)
	if out.AblatedSends > 0 {
		out.SendsRatio = float64(out.HedgedSends) / float64(out.AblatedSends)
	}
	return out
}

// completionQuantile ranks the per-seed completion times and returns the
// q-quantile (nearest-rank). A run that never reached 100% before the end
// of measurement (-1) ranks above every finite time.
func completionQuantile(pairs []HedgePair, q float64, ablated bool) time.Duration {
	ts := make([]time.Duration, 0, len(pairs))
	for _, p := range pairs {
		t := p.HedgedComplete
		if ablated {
			t = p.AblatedComplete
		}
		if t < 0 {
			t = time.Duration(1<<63 - 1)
		}
		ts = append(ts, t)
	}
	if len(ts) == 0 {
		return 0
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	idx := int(q*float64(len(ts))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ts) {
		idx = len(ts) - 1
	}
	return ts[idx]
}

// Render writes the paired table and the aggregate verdict lines.
func (r *HedgeStudyResult) Render(w io.Writer) {
	header(w, "Re-assertion ladder: straggler + burst loss, paired seeds",
		"seed", "hedged_complete", "ablated_complete", "reasserts", "sends_ratio")
	for _, p := range r.Pairs {
		ratio := 0.0
		if p.AblatedSends > 0 {
			ratio = float64(p.HedgedSends) / float64(p.AblatedSends)
		}
		row(w, p.Seed, fmtCompletion(p.HedgedComplete), fmtCompletion(p.AblatedComplete),
			p.Reasserts, ratio)
	}
	mode := func(name string, ablated bool, sends int64) {
		fmt.Fprintf(w, "# %s completion p50 / p90 / p99: %s / %s / %s, %d sends\n", name,
			fmtCompletion(completionQuantile(r.Pairs, 0.50, ablated)),
			fmtCompletion(completionQuantile(r.Pairs, 0.90, ablated)),
			fmtCompletion(completionQuantile(r.Pairs, 0.99, ablated)), sends)
	}
	mode("hedged ", false, r.HedgedSends)
	mode("ablated", true, r.AblatedSends)
	fmt.Fprintf(w, "# sends ratio %.3f; %d reasserts\n", r.SendsRatio, r.TotalReasserts)
}

func fmtCompletion(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return d.Round(100 * time.Millisecond).String()
}
