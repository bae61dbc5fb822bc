package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/avail"
)

// PaperQueries are the four evaluation queries of Figures 5–8.
var PaperQueries = []struct {
	Figure int
	Label  string
	SQL    string
}{
	{5, "http-bytes", "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"},
	{6, "big-flows", "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"},
	{7, "smb-avg", "SELECT AVG(Bytes) FROM Flow WHERE App='SMB'"},
	{8, "priv-ports", "SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024"},
}

// Fig1Result is the availability-over-time series of Figure 1.
type Fig1Result struct {
	Hours []float64 // fraction available, one sample per hour
	Stats avail.Stats
}

// Fig1 regenerates the availability picture of a trace: the hourly
// fraction of available endsystems, with the aggregate statistics the
// paper quotes for Farsite (mean availability ≈ 0.81, strong periodicity).
func Fig1(trace *avail.Trace) *Fig1Result {
	return &Fig1Result{Hours: trace.HourlySeries(), Stats: trace.ComputeStats()}
}

// Render writes the series.
func (r *Fig1Result) Render(w io.Writer) {
	header(w, fmt.Sprintf(
		"Figure 1: endsystem availability by hour (mean %.3f, departures/online-s %.3g)",
		r.Stats.MeanAvailability, r.Stats.DeparturesPerOnlineSecond),
		"hour", "fraction_available")
	for h, f := range r.Hours {
		row(w, h, f)
	}
}

// CompletenessFigure is one of Figures 5–8: the predicted-vs-actual
// completeness curve for the Tuesday-midnight injection (panel a) plus the
// prediction errors across consecutive weekdays and across injection times
// of day (panels b and c of Figure 5; b of Figures 6–8).
type CompletenessFigure struct {
	Figure int
	SQL    string

	// Panel (a): curve at the canonical injection.
	Delays        []time.Duration
	PredictedRows []float64
	ActualRows    []float64
	TotalRowErr   float64 // percent

	// Panel (b): errors at checkpoint delays for injections on four
	// consecutive weekdays at 00:00.
	DayLabels []string
	DayErrors [][]float64 // [day][checkpoint]

	// Panel (c): errors for injections at 00:00, 06:00, 12:00, 18:00.
	TimeLabels []string
	TimeErrors [][]float64

	Checkpoints []time.Duration
}

// ErrorCheckpoints are the delays at which the paper reports prediction
// error: immediately, then 1, 2, 4 and 8 hours after injection.
var ErrorCheckpoints = []time.Duration{
	10 * time.Minute, time.Hour, 2 * time.Hour, 4 * time.Hour, 8 * time.Hour,
}

// RunCompletenessFigure reproduces one of Figures 5–8 for the query at
// index qi of PaperQueries. Its seven injections (panel (a) Tuesday
// midnight; panel (b) Tue–Fri at 00:00; panel (c) Tuesday at 00:00,
// 06:00, 12:00 and 18:00) run as one study through the deterministic
// parallel engine; CompletenessSweep produces all four figures from one
// shared study instead.
func RunCompletenessFigure(s Scale, qi int) *CompletenessFigure {
	figs, _ := completenessFigures(s, []int{qi})
	return figs[0]
}

// Render writes the figure's panels.
func (f *CompletenessFigure) Render(w io.Writer) {
	header(w, fmt.Sprintf("Figure %d(a): %s — predicted vs actual rows (total row-count error %+.2f%%)",
		f.Figure, f.SQL, f.TotalRowErr),
		"delay", "predicted_rows", "actual_rows")
	for i := range f.Delays {
		row(w, fmtDuration(f.Delays[i]), f.PredictedRows[i], f.ActualRows[i])
	}

	cols := []string{"injection"}
	for _, c := range f.Checkpoints {
		cols = append(cols, "err@"+fmtDuration(c))
	}
	header(w, fmt.Sprintf("Figure %d(b): prediction error %% by injection day (00:00)", f.Figure), cols...)
	for d, label := range f.DayLabels {
		cells := []any{label}
		for _, e := range f.DayErrors[d] {
			cells = append(cells, e)
		}
		row(w, cells...)
	}
	header(w, fmt.Sprintf("Figure %d(c): prediction error %% by injection time of day", f.Figure), cols...)
	for i, label := range f.TimeLabels {
		cells := []any{label}
		for _, e := range f.TimeErrors[i] {
			cells = append(cells, e)
		}
		row(w, cells...)
	}
}

// MaxAbsError returns the largest |error| across all panels, the headline
// "under 5% in all cases" number.
func (f *CompletenessFigure) MaxAbsError() float64 {
	maxAbs := 0.0
	scan := func(rows [][]float64) {
		for _, es := range rows {
			for _, e := range es {
				if e < 0 {
					e = -e
				}
				if e > maxAbs {
					maxAbs = e
				}
			}
		}
	}
	scan(f.DayErrors)
	scan(f.TimeErrors)
	return maxAbs
}
