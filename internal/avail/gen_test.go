package avail

import (
	"math"
	"testing"
	"time"
)

// The generators are calibrated against the published statistics of the
// traces the paper uses. These tests pin the calibration.

func TestFarsiteCalibration(t *testing.T) {
	tr := GenerateFarsite(DefaultFarsiteConfig(3000, 4*Week, 1))
	st := tr.ComputeStats()
	if st.MeanAvailability < 0.76 || st.MeanAvailability > 0.86 {
		t.Errorf("mean availability = %.3f, want ≈0.81", st.MeanAvailability)
	}
	// Paper: 4.06e-6 departures per online endsystem-second.
	if st.DeparturesPerOnlineSecond < 1.5e-6 || st.DeparturesPerOnlineSecond > 9e-6 {
		t.Errorf("departure rate = %.3g, want ≈4.06e-6", st.DeparturesPerOnlineSecond)
	}
	// Model parameter c ≈ 6.9e-6 (joins + leaves per endsystem-second).
	if st.ChurnPerEndsystemSecond < 2e-6 || st.ChurnPerEndsystemSecond > 1.5e-5 {
		t.Errorf("churn = %.3g, want ≈6.9e-6", st.ChurnPerEndsystemSecond)
	}
}

func TestFarsiteDiurnalPattern(t *testing.T) {
	tr := GenerateFarsite(DefaultFarsiteConfig(2000, 2*Week, 2))
	// Availability mid-Tuesday should clearly exceed availability at 4am.
	day := 8 * Day // second Tuesday
	night := tr.FractionAvailable(day + 4*time.Hour)
	noon := tr.FractionAvailable(day + 12*time.Hour)
	if noon-night < 0.1 {
		t.Errorf("diurnal swing too small: night=%.3f noon=%.3f", night, noon)
	}
	// Weekend availability below weekday availability.
	weekend := tr.FractionAvailable(12*Day + 12*time.Hour) // Saturday noon
	if noon-weekend < 0.05 {
		t.Errorf("weekly swing too small: weekday=%.3f weekend=%.3f", noon, weekend)
	}
}

func TestFarsiteDeterministicAndScaleFree(t *testing.T) {
	a := GenerateFarsite(DefaultFarsiteConfig(100, Week, 7))
	b := GenerateFarsite(DefaultFarsiteConfig(200, Week, 7))
	// Endsystem i's profile must not depend on the population size.
	for i := 0; i < 100; i++ {
		pa, pb := a.Profiles[i], b.Profiles[i]
		if len(pa.Up) != len(pb.Up) {
			t.Fatalf("endsystem %d differs between population sizes", i)
		}
		for j := range pa.Up {
			if pa.Up[j] != pb.Up[j] {
				t.Fatalf("endsystem %d interval %d differs", i, j)
			}
		}
	}
}

func TestFarsiteIntervalsWithinHorizon(t *testing.T) {
	tr := GenerateFarsite(DefaultFarsiteConfig(500, Week, 3))
	for i, p := range tr.Profiles {
		for _, iv := range p.Up {
			if iv.Start < 0 || iv.End > tr.Horizon || iv.End < iv.Start {
				t.Fatalf("endsystem %d has invalid interval %v", i, iv)
			}
		}
	}
}

func TestGnutellaCalibration(t *testing.T) {
	cfg := DefaultGnutellaConfig(3000, 60*time.Hour, 4)
	tr := GenerateGnutella(cfg)
	st := tr.ComputeStats()
	// Paper: 9.46e-5 departures per online endsystem-second.
	if st.DeparturesPerOnlineSecond < 6e-5 || st.DeparturesPerOnlineSecond > 1.4e-4 {
		t.Errorf("departure rate = %.3g, want ≈9.46e-5", st.DeparturesPerOnlineSecond)
	}
	wantAvail := float64(gnutellaMeanSession) / float64(gnutellaMeanSession+gnutellaMeanDowntime)
	if math.Abs(st.MeanAvailability-wantAvail) > 0.08 {
		t.Errorf("mean availability = %.3f, want ≈%.3f", st.MeanAvailability, wantAvail)
	}
}

func TestComputeStatsNoOverflowAtScale(t *testing.T) {
	// Regression: summing uptime as time.Duration overflows int64
	// nanoseconds around 5,000 endsystem-months; stats must accumulate in
	// float seconds.
	tr := GenerateFarsite(DefaultFarsiteConfig(8000, 4*Week, 1))
	st := tr.ComputeStats()
	if st.MeanAvailability < 0.5 || st.MeanAvailability > 1 {
		t.Fatalf("mean availability %v out of range: accumulator overflow?", st.MeanAvailability)
	}
	if st.MeanSession <= 0 {
		t.Fatalf("mean session %v non-positive", st.MeanSession)
	}
}

func TestGnutellaMuchHigherChurnThanFarsite(t *testing.T) {
	f := GenerateFarsite(DefaultFarsiteConfig(1000, Week, 5)).ComputeStats()
	g := GenerateGnutella(DefaultGnutellaConfig(1000, Week, 5)).ComputeStats()
	if g.DeparturesPerOnlineSecond < 10*f.DeparturesPerOnlineSecond {
		t.Errorf("Gnutella churn (%.3g) should dwarf Farsite churn (%.3g)",
			g.DeparturesPerOnlineSecond, f.DeparturesPerOnlineSecond)
	}
}
