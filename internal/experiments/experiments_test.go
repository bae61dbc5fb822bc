package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/model"
)

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	s := QuickScale()
	s.CompletenessN = 500
	s.PacketN = 100
	s.PacketHorizon = 36 * time.Hour
	s.FlowsPerDay = 50
	return s
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"N", "f_on", "6473", "2.6e+09"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2MatchesPaperCells(t *testing.T) {
	r := Table2()
	wantF := []float64{0.998, 0.980, 0.789}
	wantG := []float64{0.973, 0.716, 0.018}
	for i := range wantF {
		if math.Abs(r.Farsite[i]-wantF[i]) > 0.02 {
			t.Errorf("farsite[%d] = %.3f, want %.3f", i, r.Farsite[i], wantF[i])
		}
		if math.Abs(r.Gnutella[i]-wantG[i]) > 0.02 {
			t.Errorf("gnutella[%d] = %.3f, want %.3f", i, r.Gnutella[i], wantG[i])
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "12hours") {
		t.Error("render missing rows")
	}
}

func TestFig3ShapeClaims(t *testing.T) {
	base := model.PaperDefaults()
	// Fig 3(a): at every N, Seaweed is the cheapest design, ~10x below
	// centralized, >=1000x below the replicated designs.
	a := Fig3a(base)
	seaweedIdx, centIdx := 1, 0 // AllDesigns order
	if a.Designs[seaweedIdx] != model.Seaweed || a.Designs[centIdx] != model.Centralized {
		t.Fatal("design order changed")
	}
	for j := range a.Values {
		sw := a.Overhead[seaweedIdx][j]
		for i := range a.Designs {
			if i == seaweedIdx {
				continue
			}
			if a.Overhead[i][j] < sw {
				t.Fatalf("%v cheaper than Seaweed at N=%g", a.Designs[i], a.Values[j])
			}
		}
	}
	// Fig 3(b): Seaweed's overhead is flat in u, centralized crosses it.
	b := Fig3b(base)
	first, last := b.Overhead[seaweedIdx][0], b.Overhead[seaweedIdx][len(b.Values)-1]
	if first != last {
		t.Error("Seaweed overhead must be independent of u")
	}
	crossed := false
	for j := range b.Values {
		if b.Overhead[centIdx][j] > b.Overhead[seaweedIdx][j] {
			crossed = true
		}
	}
	if !crossed {
		t.Error("centralized never exceeds Seaweed in u sweep")
	}
	// Fig 3(c): Seaweed and centralized flat in d; PIER linear in d.
	c := Fig3c(base)
	pierIdx := 3
	ratio := c.Overhead[pierIdx][len(c.Values)-1] / c.Overhead[pierIdx][0]
	dRatio := c.Values[len(c.Values)-1] / c.Values[0]
	if math.Abs(ratio-dRatio)/dRatio > 1e-6 {
		t.Errorf("PIER not linear in d: ratio %g vs %g", ratio, dRatio)
	}
	// Fig 3(d): DHT linear in churn; Seaweed only mildly affected until
	// extreme churn.
	d := Fig3d(base)
	dhtIdx := 2
	if d.Overhead[dhtIdx][len(d.Values)-1] <= d.Overhead[dhtIdx][0]*1e4 {
		t.Error("DHT-replicated should grow strongly with churn")
	}
}

func TestFig4SmallDataFavorsCentralized(t *testing.T) {
	panels := Fig4()
	if len(panels) != 4 {
		t.Fatal("Fig4 must return four panels")
	}
	// At the small-data defaults the centralized design beats Seaweed.
	a := panels[0]
	centIdx, seaweedIdx := 0, 1
	if a.Overhead[centIdx][0] >= a.Overhead[seaweedIdx][0] {
		t.Error("centralized should win at u=10 B/s (Figure 4 narrative)")
	}
}

func TestFig1AvailabilityShape(t *testing.T) {
	s := tinyScale()
	r := Fig1(avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.CompletenessN, s.Horizon, s.Seed)))
	if len(r.Hours) < 24 {
		t.Fatal("too few samples")
	}
	if r.Stats.MeanAvailability < 0.7 || r.Stats.MeanAvailability > 0.9 {
		t.Errorf("mean availability %.3f, want ≈0.81", r.Stats.MeanAvailability)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if len(strings.Split(buf.String(), "\n")) < len(r.Hours) {
		t.Error("render truncated")
	}
}

// TestFig1RendersItsTrace: Figure 1 plots the trace it is given, so a
// Gnutella trace's header carries that trace's mean availability (about
// 0.31 here), not a Farsite trace's (about 0.86).
func TestFig1RendersItsTrace(t *testing.T) {
	trace := avail.GenerateGnutella(avail.DefaultGnutellaConfig(200, 48*time.Hour, 1))
	var buf bytes.Buffer
	Fig1(trace).Render(&buf)
	want := fmt.Sprintf("(mean %.3f,", trace.ComputeStats().MeanAvailability)
	if first, _, _ := strings.Cut(buf.String(), "\n"); !strings.Contains(first, want) {
		t.Fatalf("Figure 1 header %q does not carry the trace's %q", first, want)
	}
}

func TestCompletenessFigureShape(t *testing.T) {
	s := tinyScale()
	f := RunCompletenessFigure(s, 0) // Figure 5
	if f.Figure != 5 {
		t.Fatal("wrong figure")
	}
	if len(f.DayErrors) != 4 || len(f.TimeErrors) != 4 {
		t.Fatalf("panel sizes: %d days, %d times", len(f.DayErrors), len(f.TimeErrors))
	}
	// The headline claim, loosened for the tiny population: prediction
	// error bounded at every checkpoint.
	if f.MaxAbsError() > 25 {
		t.Errorf("max prediction error %.1f%% too large even for tiny scale", f.MaxAbsError())
	}
	if math.Abs(f.TotalRowErr) > 5 {
		t.Errorf("total row-count error %.2f%%", f.TotalRowErr)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 5(a)", "Figure 5(b)", "Figure 5(c)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %s", want)
		}
	}
}

func TestFig9aAndLatency(t *testing.T) {
	s := tinyScale()
	r := Fig9a(s)
	if r.MeanTotalPerOnline <= 0 {
		t.Fatal("no overhead recorded")
	}
	if r.PredictorLatency <= 0 || r.PredictorLatency > 30*time.Second {
		t.Errorf("predictor latency %v implausible", r.PredictorLatency)
	}
	// Maintenance exceeds the query's overhead. It no longer exceeds
	// Pastry's: an unchanged round costs each member a 32-byte beacon.
	var maintSum, querySum float64
	for i := range r.Maintenance {
		maintSum += r.Maintenance[i]
		querySum += r.Query[i]
	}
	if maintSum <= querySum {
		t.Errorf("maintenance (%f) should dominate query (%f)", maintSum, querySum)
	}
}

func TestFig9bLoadDistribution(t *testing.T) {
	s := tinyScale()
	r := Fig9b(s)
	if r.Tx.N == 0 {
		t.Fatal("no samples")
	}
	// The zero fraction reflects offline hours: roughly 1 - f_on.
	if r.Tx.ZeroFraction < 0.05 || r.Tx.ZeroFraction > 0.5 {
		t.Errorf("zero fraction %.2f, want ≈0.19", r.Tx.ZeroFraction)
	}
	if r.Tx.P99 < r.Tx.P50 {
		t.Error("p99 below median")
	}
	if r.MeanOnlineTx() <= 0 {
		t.Error("no mean bandwidth")
	}
}

func TestFig9dScaling(t *testing.T) {
	s := tinyScale()
	s.PacketHorizon = 24 * time.Hour
	pts := Fig9d(s, []int{50, 100, 200})
	if len(pts) != 3 {
		t.Fatal("wrong point count")
	}
	// Maintenance per endsystem is O(1): it must not grow anywhere near
	// linearly with N (allow 2x drift for noise at tiny scale).
	if pts[2].Maintenance > 2.5*pts[0].Maintenance {
		t.Errorf("maintenance grew %0.f -> %0.f over 4x N",
			pts[0].Maintenance, pts[2].Maintenance)
	}
	for _, p := range pts {
		if p.PredictorLatency <= 0 {
			t.Errorf("N=%d: no predictor", p.N)
		}
		// The predictor's way back is a part of the query bytes, and far
		// under one fixed-size predictor a response.
		if p.PredictorBytes <= 0 || p.PredictorBytes >= p.DissemBytes || p.PredictorBytes > 776 {
			t.Errorf("N=%d: predictor path %.0f B per endsystem of %.0f query bytes (paper: 776)",
				p.N, p.PredictorBytes, p.DissemBytes)
		}
	}
}

func TestFig10HighChurn(t *testing.T) {
	s := tinyScale()
	r := Fig10(s)
	if r.Stats.DeparturesPerOnlineSecond < 5e-5 {
		t.Errorf("gnutella churn %.3g too low", r.Stats.DeparturesPerOnlineSecond)
	}
	if r.Timeline.MeanTotalPerOnline <= 0 {
		t.Fatal("no overhead")
	}
	// High churn costs more than Farsite, but the increase must be far
	// smaller than the ~23x churn ratio (paper: 7x at 23x churn).
	farsite := Fig9a(s)
	ratio := r.Timeline.MeanTotalPerOnline / farsite.MeanTotalPerOnline
	if ratio < 1.0 {
		t.Errorf("high churn should cost more (ratio %.2f)", ratio)
	}
	if ratio > 23 {
		t.Errorf("overhead ratio %.1f exceeds the churn ratio itself", ratio)
	}
}

func TestFig2ExamplePredictor(t *testing.T) {
	s := tinyScale()
	r := Fig2(s)
	if r.Pred == nil {
		t.Fatal("no predictor")
	}
	// Monotone completeness reaching 1 within the horizon tail.
	prev := -1.0
	for _, c := range r.Complete {
		if c < prev-1e-9 {
			t.Fatal("completeness not monotone")
		}
		prev = c
	}
	if r.Complete[len(r.Complete)-1] < 0.9 {
		t.Errorf("completeness at 72h = %.2f", r.Complete[len(r.Complete)-1])
	}
}

func TestAblationHistogram(t *testing.T) {
	s := tinyScale()
	r := AblationHistogram(s)
	if len(r.Queries) == 0 {
		t.Fatal("no queries evaluated")
	}
	for i := range r.Queries {
		// The step histogram must never be dramatically worse than
		// equi-width, and should generally be better on these skewed
		// columns.
		if r.StepErr[i] > r.WidthErr[i]+10 {
			t.Errorf("%s: step err %.1f%% vs width %.1f%%", r.Queries[i], r.StepErr[i], r.WidthErr[i])
		}
	}
}

func TestAblationPredictorMode(t *testing.T) {
	s := tinyScale()
	r := AblationPredictorMode(s)
	if len(r.Modes) != 3 {
		t.Fatal("want 3 modes")
	}
	classified := r.MaxErr[0]
	for i, m := range r.Modes {
		if r.MaxErr[i] > 100 {
			t.Errorf("%s: max error %.0f%%", m, r.MaxErr[i])
		}
	}
	// The classifier should not be meaningfully worse than either forced
	// mode (it usually wins).
	if classified > r.MaxErr[1]+10 && classified > r.MaxErr[2]+10 {
		t.Errorf("classifier (%.1f%%) worse than both forced modes (%v)", classified, r.MaxErr)
	}
}
