package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/relq"
	"repro/internal/runner"
)

// dayLabels and timeLabels name the panel (b) and (c) injections of the
// completeness figures; injectionLabels names figureInjections' instants,
// in its order.
var (
	dayLabels       = []string{"Tue", "Wed", "Thu", "Fri"}
	timeLabels      = []string{"00:00", "06:00", "12:00", "18:00"}
	injectionLabels = []string{"Tue-00:00", "Wed-00:00", "Thu-00:00",
		"Fri-00:00", "Tue-06:00", "Tue-12:00", "Tue-18:00"}
)

// figureInjections returns the seven distinct injection instants behind
// the Figures 5–8 panels: panel (a) and the 00:00 entries of panels (b)
// and (c) share the Tuesday-midnight injection, panel (b) adds Wed–Fri
// midnight, panel (c) adds Tuesday 06:00/12:00/18:00.
func figureInjections(s Scale) []time.Duration {
	base := s.InjectAt()
	inj := []time.Duration{base}
	for d := 1; d < 4; d++ {
		inj = append(inj, base+time.Duration(d)*avail.Day)
	}
	for h := 1; h < 4; h++ {
		inj = append(inj, base+time.Duration(6*h)*time.Hour)
	}
	return inj
}

// SweepRecord is the deterministic per-(figure, injection) record of the
// sweep; it carries no timing.
type SweepRecord struct {
	Figure      int       `json:"figure"`
	Label       string    `json:"label"`
	Injection   string    `json:"injection"`
	TotalRows   int64     `json:"total_relevant_rows"`
	TotalRowErr float64   `json:"total_row_err_pct"`
	Errors      []float64 `json:"err_at_checkpoints_pct"`
}

// completenessFigures evaluates the completeness figures for the
// PaperQueries at indices qis through ONE shared study: the
// per-endsystem datasets are generated once for all queries and the
// availability outcomes once for all seven injections, instead of once
// per figure. The records come back in (figure, injection) order.
func completenessFigures(s Scale, qis []int) ([]*CompletenessFigure, []SweepRecord) {
	w := anemone.DefaultConfig(s.Horizon, s.Seed)
	w.MeanFlowsPerDay = s.FlowsPerDay
	queries := make([]*relq.Query, len(qis))
	for i, qi := range qis {
		queries[i] = relq.MustParse(PaperQueries[qi].SQL)
	}
	study := core.RunCompletenessStudy(core.CompletenessStudyConfig{
		Trace:       avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.CompletenessN, s.Horizon, s.Seed)),
		Workload:    w,
		Queries:     queries,
		InjectAts:   figureInjections(s),
		Lifetime:    48 * time.Hour,
		Parallelism: s.Workers,
		Obs:         s.Obs,
		RunnerStats: s.RunnerStats,
	})

	errorsAt := func(r *core.CompletenessResult) []float64 {
		var es []float64
		for _, d := range ErrorCheckpoints {
			es = append(es, r.PredictionErrorAt(d))
		}
		return es
	}

	figs := make([]*CompletenessFigure, len(qis))
	var recs []SweepRecord
	for fi, qi := range qis {
		spec := PaperQueries[qi]
		results := study[fi]
		out := &CompletenessFigure{Figure: spec.Figure, SQL: spec.SQL, Checkpoints: ErrorCheckpoints}

		a := results[0]
		out.Delays = a.Delays
		out.PredictedRows = a.PredictedRows
		out.ActualRows = a.ActualRows
		out.TotalRowErr = a.TotalRowCountError()

		out.DayLabels = dayLabels
		out.TimeLabels = timeLabels
		out.DayErrors = append(out.DayErrors, errorsAt(results[0]))
		for d := 1; d < 4; d++ {
			out.DayErrors = append(out.DayErrors, errorsAt(results[d]))
		}
		out.TimeErrors = append(out.TimeErrors, errorsAt(results[0]))
		for h := 1; h < 4; h++ {
			out.TimeErrors = append(out.TimeErrors, errorsAt(results[3+h]))
		}
		figs[fi] = out

		for j, r := range results {
			recs = append(recs, SweepRecord{
				Figure:      spec.Figure,
				Label:       spec.Label,
				Injection:   injectionLabels[j],
				TotalRows:   r.TotalRelevantRows,
				TotalRowErr: r.TotalRowCountError(),
				Errors:      errorsAt(r),
			})
		}
	}
	return figs, recs
}

// CompletenessSweepResult bundles the four completeness figures produced
// by one shared parallel study, their per-cell records, and the engine
// timing behind them.
type CompletenessSweepResult struct {
	Figures []*CompletenessFigure
	// Records holds one SweepRecord per (figure, injection) cell in
	// deterministic order.
	Records []SweepRecord
	Seed    int64
	Stats   *runner.Stats
}

// CompletenessSweep reproduces Figures 5–8 in one pass over the shared
// study (4 queries × 7 injections).
func CompletenessSweep(s Scale) *CompletenessSweepResult {
	if s.RunnerStats == nil {
		s.RunnerStats = &runner.Stats{}
	}
	figs, recs := completenessFigures(s, []int{0, 1, 2, 3})
	return &CompletenessSweepResult{Figures: figs, Records: recs, Seed: s.Seed, Stats: s.RunnerStats}
}

// WriteJSONL writes one JSON line per record: its index, a
// "fig<N>/<injection>" name, the sweep's seed and the record itself. The
// output depends only on the records, never on timing or worker count.
func (r *CompletenessSweepResult) WriteJSONL(w io.Writer) error {
	for i, rec := range r.Records {
		b, err := json.Marshal(struct {
			Index int         `json:"index"`
			Name  string      `json:"name"`
			Seed  int64       `json:"seed"`
			Value SweepRecord `json:"value"`
		}{i, fmt.Sprintf("fig%d/%s", rec.Figure, rec.Injection), r.Seed, rec})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// Render writes every figure plus the engine's parallel-efficiency line.
func (r *CompletenessSweepResult) Render(w io.Writer) {
	for _, f := range r.Figures {
		f.Render(w)
	}
	fmt.Fprintf(w, "# sweep: %d runs, %d workers, wall %v, busy %v, speedup %.2fx\n",
		r.Stats.Runs, r.Stats.Workers, r.Stats.Wall.Round(time.Millisecond),
		r.Stats.Busy.Round(time.Millisecond), r.Stats.Speedup())
}
