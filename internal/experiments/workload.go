package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/qserve"
)

// WorkloadResult is the outcome of one workload sweep: the same arrival
// plan served by the full delay-aware scheduler and by each ablation,
// plus the "teeth" verdicts — the claims the sweep is expected to
// demonstrate, checked so CI fails loudly when a change erodes them.
//
// The sweep is deliberately paired: every variant runs with the SAME
// seed, so the three clusters, traces and arrival sequences are
// byte-identical and the only difference is the service policy. (This is
// a deviation from the usual rc.Seed-per-run independence: here
// correlation across runs is the experiment.)
type WorkloadResult struct {
	Label    string           `json:"label"`
	Workload string           `json:"workload"`
	N        int              `json:"n"`
	Seed     int64            `json:"seed"`
	Variants []*qserve.Report `json:"variants"`
	// AdmissionToothOK: ablating admission control makes interactive p99
	// latency strictly worse (the unshed batch backlog starves the
	// pipe).
	AdmissionToothOK bool `json:"admission_tooth_ok"`
	// PriorityToothOK: ablating delay-aware priority (strict FIFO) makes
	// interactive p99 latency strictly worse (head-of-line blocking
	// behind batch scans).
	PriorityToothOK bool `json:"priority_tooth_ok"`
	// Events is the total scheduler events across the sweep's runs, when
	// a shared observability layer was attached (0 otherwise). Virtual
	// work, not wall timing: deterministic.
	Events uint64 `json:"events,omitempty"`
}

// Variant returns the report with the given variant name, or nil.
func (r *WorkloadResult) Variant(name string) *qserve.Report {
	for _, v := range r.Variants {
		if v.Variant == name {
			return v
		}
	}
	return nil
}

// OK reports whether every tooth holds.
func (r *WorkloadResult) OK() bool { return r.AdmissionToothOK && r.PriorityToothOK }

// Render writes the sweep as text tables plus the teeth verdicts.
func (r *WorkloadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "## workload sweep: %s (n=%d seed=%d)\n\n", r.Workload, r.N, r.Seed)
	for _, v := range r.Variants {
		v.Render(w)
		fmt.Fprintln(w)
	}
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAILED"
	}
	fmt.Fprintf(w, "tooth admission (full p99 < ablate-admission p99, interactive): %s\n",
		verdict(r.AdmissionToothOK))
	fmt.Fprintf(w, "tooth priority  (full p99 < ablate-priority p99, interactive):  %s\n",
		verdict(r.PriorityToothOK))
}

// JSON renders the result for `seaweed-sim -workload W -out f`: indented,
// trailing newline, no wall timing anywhere — byte-comparable across runs
// and worker counts.
func (r *WorkloadResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the JSON rendering to path.
func (r *WorkloadResult) WriteJSON(path string) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SmokeWorkload shrinks a named workload for CI: same rates and shape,
// but a 25-minute arrival window and 50-minute drain, starting at 2am —
// before the Farsite trace's morning arrivals, when the population is
// static. That keeps the warmup cheap and removes injector churn, so the
// smoke teeth measure scheduling policy alone.
func SmokeWorkload(name string, scale float64) (qserve.Workload, bool) {
	w, ok := qserve.Named(name, scale)
	if !ok {
		return w, false
	}
	w.Start = 2 * time.Hour
	w.Window = 25 * time.Minute
	w.Drain = 50 * time.Minute
	if w.SpikeFactor > 1 {
		w.SpikeAt = w.Start + 5*time.Minute
		w.SpikeFor = 5 * time.Minute
	}
	return w, true
}

// WorkloadConfig builds the service configuration for a sweep run. Smoke
// runs shrink the service's time constants in proportion to the shrunk
// arrival window so the same dynamics (batch shedding, starvation
// reservations) play out within it.
func WorkloadConfig(n int, seed int64, w qserve.Workload, smoke bool) qserve.Config {
	cfg := qserve.DefaultConfig(n, seed, w)
	if smoke {
		cfg.StarveAfter = 5 * time.Minute
		cfg.DelayBudget = [qserve.NumClasses]time.Duration{
			qserve.Interactive: time.Hour, qserve.Batch: 6 * time.Minute}
		cfg.ResultWindow = [qserve.NumClasses]time.Duration{
			qserve.Interactive: 2 * time.Minute, qserve.Batch: 4 * time.Minute}
	}
	return cfg
}

// workloadVariants is the sweep order: the full scheduler first, then
// each ablation.
var workloadVariants = []struct {
	name             string
	disableAdmission bool
	disablePriority  bool
}{
	{name: "full"},
	{name: "ablate-admission", disableAdmission: true},
	{name: "ablate-priority", disablePriority: true},
}

// WorkloadSweep serves one workload through the full scheduler and both
// ablations — paired on the same seed — and checks the teeth. The three
// runs go through the deterministic engine, so the result is
// byte-identical at any Workers count.
func WorkloadSweep(s Scale, n int, w qserve.Workload, smoke bool) *WorkloadResult {
	variants := runSeries(s, len(workloadVariants), func(i int, sc Scale) *qserve.Report {
		cfg := WorkloadConfig(n, s.Seed, w, smoke)
		cfg.DisableAdmission = workloadVariants[i].disableAdmission
		cfg.DisablePriority = workloadVariants[i].disablePriority
		cfg.Obs = sc.Obs
		return qserve.Run(cfg)
	})
	res := &WorkloadResult{
		Label: "qserve", Workload: w.Name, N: n, Seed: s.Seed, Variants: variants,
	}
	full := res.Variant("full").Class("interactive")
	noAdm := res.Variant("ablate-admission").Class("interactive")
	fifo := res.Variant("ablate-priority").Class("interactive")
	res.AdmissionToothOK = full.LatencyP99MS < noAdm.LatencyP99MS
	res.PriorityToothOK = full.LatencyP99MS < fifo.LatencyP99MS
	if s.Obs != nil {
		res.Events = s.Obs.Counter("sched_events").Value()
	}
	return res
}
