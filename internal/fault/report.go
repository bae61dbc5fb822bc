package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// InjectionRecord is the as-executed log of one injection: when it
// activated, when it healed (-1 if it never did), and what it hit.
type InjectionRecord struct {
	Index     int           `json:"index"`
	Type      Type          `json:"type"`
	At        time.Duration `json:"at"`
	Healed    time.Duration `json:"healed"`
	Region    int           `json:"region"`              // -1 for non-regional faults
	Endpoints int           `json:"endpoints,omitempty"` // endsystems crashed (Crash only)
}

// Violation is one invariant failure observed during a chaos run.
type Violation struct {
	At        time.Duration `json:"at"`
	Invariant string        `json:"invariant"`
	Detail    string        `json:"detail"`
}

// InvariantVerdict is the end-of-run verdict for one invariant.
type InvariantVerdict struct {
	Invariant string `json:"invariant"`
	Pass      bool   `json:"pass"`
	Detail    string `json:"detail,omitempty"`
}

// QueryVerdict tracks one query's recovery arc through the scenario:
// completeness when the final fault healed versus at the end of the run.
type QueryVerdict struct {
	Query              string  `json:"query"`
	TruthRows          float64 `json:"truth_rows"`
	RowsAtFinalHeal    float64 `json:"rows_at_final_heal"`
	FinalRows          float64 `json:"final_rows"`
	CompletenessAtHeal float64 `json:"completeness_at_heal"`
	FinalCompleteness  float64 `json:"final_completeness"`
	RecoveredAfterHeal bool    `json:"recovered_after_heal"`
	// TimeToComplete is how long after injection the query first reached
	// 100% of ground truth (-1 if it never did) — the tail-latency metric
	// the straggler scenario's re-assertion ablation is judged on.
	TimeToComplete time.Duration `json:"time_to_complete"`
}

// HedgeStats summarizes the aggregation tree's re-assertion ladder over a
// run: whether it was on, how many rungs fired, and total network sends
// (for the extra-load accounting of hedged vs. ablated runs).
type HedgeStats struct {
	Enabled   bool  `json:"enabled"`
	Reasserts int64 `json:"reasserts"`
	NetSends  int64 `json:"net_sends"`
}

// Report is the deterministic artifact of one chaos run: what was
// injected when, how each query fared, and which invariants held. Slices
// are appended in scheduler (virtual-time) order, so for a given seed the
// JSON encoding is byte-identical across runs and worker counts.
type Report struct {
	Scenario   string             `json:"scenario"`
	Seed       int64              `json:"seed"`
	Injections []InjectionRecord  `json:"injections"`
	Queries    []QueryVerdict     `json:"queries,omitempty"`
	Hedges     *HedgeStats        `json:"hedges,omitempty"`
	Invariants []InvariantVerdict `json:"invariants,omitempty"`
	Violations []Violation        `json:"violations,omitempty"`
	// FlightRecorder is the checker's bounded ring of the most recent
	// trace events at the instant of the first invariant violation —
	// the virtual-time moments leading up to the failure, captured even
	// on runs that never asked for a trace file. Empty on clean runs.
	FlightRecorder []obs.Event `json:"flight_recorder,omitempty"`
}

// OK reports whether the run passed: no recorded violations and every
// end-of-run invariant verdict passing.
func (r *Report) OK() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, v := range r.Invariants {
		if !v.Pass {
			return false
		}
	}
	return true
}

// JSON returns the canonical (indented) encoding of the report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteText renders a human-readable summary of the report to w.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "chaos scenario %q seed %d: ", r.Scenario, r.Seed)
	if r.OK() {
		fmt.Fprintf(w, "PASS\n")
	} else {
		fmt.Fprintf(w, "FAIL (%d violations)\n", len(r.Violations))
	}
	fmt.Fprintf(w, "\ninjections:\n")
	for _, in := range r.Injections {
		healed := "never"
		if in.Healed >= 0 {
			healed = in.Healed.String()
		}
		fmt.Fprintf(w, "  [%d] %-10s at %-8s healed %-8s", in.Index, in.Type, in.At, healed)
		if in.Region >= 0 {
			fmt.Fprintf(w, " region %d", in.Region)
		}
		if in.Endpoints > 0 {
			fmt.Fprintf(w, " (%d endsystems)", in.Endpoints)
		}
		fmt.Fprintln(w)
	}
	if len(r.Queries) > 0 {
		fmt.Fprintf(w, "\nqueries:\n")
		for _, q := range r.Queries {
			fmt.Fprintf(w, "  %s: truth %.0f rows, %.1f%% complete at final heal, %.1f%% at end",
				q.Query, q.TruthRows, 100*q.CompletenessAtHeal, 100*q.FinalCompleteness)
			if q.RecoveredAfterHeal {
				fmt.Fprintf(w, " (recovered after heal)")
			}
			if q.TimeToComplete >= 0 {
				fmt.Fprintf(w, ", complete %s after injection", q.TimeToComplete)
			}
			fmt.Fprintln(w)
		}
	}
	if r.Hedges != nil {
		state := "off"
		if r.Hedges.Enabled {
			state = "on"
		}
		fmt.Fprintf(w, "\nre-assertion ladder %s: %d rungs fired (%d network sends)\n",
			state, r.Hedges.Reasserts, r.Hedges.NetSends)
	}
	if len(r.Invariants) > 0 {
		fmt.Fprintf(w, "\ninvariants:\n")
		for _, v := range r.Invariants {
			verdict := "PASS"
			if !v.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  %-28s %s", v.Invariant, verdict)
			if v.Detail != "" {
				fmt.Fprintf(w, "  (%s)", v.Detail)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(w, "\nviolations:\n")
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  t=%-10s %-28s %s\n", v.At, v.Invariant, v.Detail)
		}
	}
}
