package experiments

import (
	"fmt"
	"io"

	"repro/internal/model"
)

// Table1 renders the model parameters (Table 1 of the paper).
func Table1(w io.Writer) {
	p := model.PaperDefaults()
	header(w, "Table 1: model parameters", "variable", "description", "value")
	row(w, "N", "number of endsystems", p.N)
	row(w, "f_on", "fraction of available endsystems", p.FOn)
	row(w, "c", "churn rate (1/s)", p.C)
	row(w, "u", "data update rate per endsystem (B/s)", p.U)
	row(w, "d", "database size per endsystem (B)", p.D)
	row(w, "k", "number of replicas stored", p.K)
	row(w, "h", "size of data summary (B)", p.H)
	row(w, "a", "size of availability model (B)", p.A)
	row(w, "p", "summary push rate (1/s)", p.P)
	row(w, "r", "PIER data refresh rate (1/s)", p.R)
	row(w, "r_alt", "PIER slow refresh rate (1/s)", p.RAlt)
}

// Table2Result holds the PIER tuple-availability table.
type Table2Result struct {
	Times    []float64 // seconds since last refresh
	Farsite  []float64
	Gnutella []float64
}

// Table2 computes the expected availability of a PIER source's tuples
// 5 minutes, 1 hour and 12 hours after its last refresh, for Farsite and
// Gnutella churn (Table 2 of the paper).
func Table2() *Table2Result {
	// Churn rates derived from the published cells (see model tests).
	const cFarsite, cGnutella = 5.5e-6, 9.3e-5
	times := []float64{300, 3600, 43200}
	r := &Table2Result{Times: times}
	for _, t := range times {
		r.Farsite = append(r.Farsite, model.PIERAvailability(cFarsite, t))
		r.Gnutella = append(r.Gnutella, model.PIERAvailability(cGnutella, t))
	}
	return r
}

// Render writes the table.
func (r *Table2Result) Render(w io.Writer) {
	header(w, "Table 2: expected availability in PIER (e^-ct)",
		"time_since_refresh", "farsite", "gnutella")
	labels := []string{"5min", "1hour", "12hours"}
	for i := range r.Times {
		row(w, labels[i], 100*r.Farsite[i], 100*r.Gnutella[i])
	}
}

// SweepResult holds one Figure 3/4 panel: overhead per design over a swept
// parameter.
type SweepResult struct {
	Param    string
	Values   []float64
	Designs  []model.Design
	Overhead [][]float64 // [design][point], bytes/s systemwide
}

// Render writes the sweep as a data table, one row per sweep point.
func (r *SweepResult) Render(w io.Writer) {
	cols := []string{r.Param}
	for _, d := range r.Designs {
		cols = append(cols, d.String())
	}
	header(w, fmt.Sprintf("maintenance overhead (B/s systemwide) vs %s", r.Param), cols...)
	for j, v := range r.Values {
		cells := []any{v}
		for i := range r.Designs {
			cells = append(cells, r.Overhead[i][j])
		}
		row(w, cells...)
	}
}

// sweep builds a SweepResult for one parameter.
func sweep(base model.Params, param string, values []float64, set func(*model.Params, float64)) *SweepResult {
	return &SweepResult{
		Param:    param,
		Values:   values,
		Designs:  model.AllDesigns(),
		Overhead: model.Sweep(base, values, set),
	}
}

// Fig3a sweeps network size N from 10^3 to 10^9 (Figure 3(a)).
func Fig3a(base model.Params) *SweepResult {
	return sweep(base, "N", model.LogSpace(1e3, 1e9, 25),
		func(p *model.Params, v float64) { p.N = v })
}

// Fig3b sweeps the per-endsystem update rate u (Figure 3(b)).
func Fig3b(base model.Params) *SweepResult {
	return sweep(base, "u", model.LogSpace(1e-2, 1e6, 25),
		func(p *model.Params, v float64) { p.U = v })
}

// Fig3c sweeps the per-endsystem database size d (Figure 3(c)).
func Fig3c(base model.Params) *SweepResult {
	return sweep(base, "d", model.LogSpace(1e6, 1e12, 25),
		func(p *model.Params, v float64) { p.D = v })
}

// Fig3d sweeps the churn rate c (Figure 3(d)).
func Fig3d(base model.Params) *SweepResult {
	return sweep(base, "c", model.LogSpace(1e-8, 1e-2, 25),
		func(p *model.Params, v float64) { p.C = v })
}

// Fig4 reruns the four sweeps of Figure 3 with the small-data defaults
// (d=100 MB, u=10 B/s) of Figure 4. Panels are returned in a..d order.
func Fig4() []*SweepResult {
	base := model.SmallDataDefaults()
	return []*SweepResult{Fig3a(base), Fig3b(base), Fig3c(base), Fig3d(base)}
}
