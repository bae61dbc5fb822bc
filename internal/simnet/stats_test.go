package simnet

import (
	"testing"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	d := Summarize(nil)
	if d.N != 0 || d.Mean != 0 || d.P50 != 0 || d.P99 != 0 || d.Max != 0 || d.ZeroFraction != 0 {
		t.Fatalf("empty Summarize = %+v, want zero value", d)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	d := Summarize([]float64{7})
	if d.N != 1 || d.Mean != 7 || d.P50 != 7 || d.P90 != 7 || d.P99 != 7 || d.Max != 7 {
		t.Fatalf("single-sample Summarize = %+v, want all 7", d)
	}
	if d.ZeroFraction != 0 {
		t.Fatalf("zero fraction = %g, want 0", d.ZeroFraction)
	}
}

func TestSummarizeAllZeros(t *testing.T) {
	d := Summarize([]float64{0, 0, 0, 0})
	if d.N != 4 || d.Mean != 0 || d.Max != 0 {
		t.Fatalf("all-zero Summarize = %+v", d)
	}
	if d.ZeroFraction != 1 {
		t.Fatalf("zero fraction = %g, want 1", d.ZeroFraction)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..100
	}
	d := Summarize(samples)
	if d.P50 != 50 || d.P90 != 90 || d.P99 != 99 || d.Max != 100 {
		t.Fatalf("percentiles = p50 %g p90 %g p99 %g max %g", d.P50, d.P90, d.P99, d.Max)
	}
	if d.Mean != 50.5 {
		t.Fatalf("mean = %g, want 50.5", d.Mean)
	}
}

func TestCDFEmpty(t *testing.T) {
	xs, fs := CDF(nil, 10)
	if xs != nil || fs != nil {
		t.Fatalf("empty CDF = %v, %v, want nil, nil", xs, fs)
	}
}

func TestCDFSingleSample(t *testing.T) {
	xs, fs := CDF([]float64{3}, 10)
	if len(xs) != 1 || xs[0] != 3 || fs[0] != 1 {
		t.Fatalf("single-sample CDF = %v, %v", xs, fs)
	}
}

func TestCDFAllZeroSamples(t *testing.T) {
	xs, fs := CDF([]float64{0, 0, 0}, 10)
	if len(xs) == 0 {
		t.Fatal("all-zero CDF empty")
	}
	if xs[len(xs)-1] != 0 || fs[len(fs)-1] != 1 {
		t.Fatalf("all-zero CDF must end at (0, 1); got (%g, %g)",
			xs[len(xs)-1], fs[len(fs)-1])
	}
}

// maxPoints >= len must keep every sample, and the curve must always end
// at (max sample, 1).
func TestCDFMaxPointsAtLeastLen(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	xs, fs := CDF(append([]float64(nil), samples...), 5)
	if len(xs) != 5 {
		t.Fatalf("maxPoints == len dropped points: %v", xs)
	}
	xs, fs = CDF(append([]float64(nil), samples...), 100)
	if len(xs) != 5 {
		t.Fatalf("maxPoints > len dropped points: %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || fs[i] < fs[i-1] {
			t.Fatalf("CDF not monotone: %v / %v", xs, fs)
		}
	}
	if xs[len(xs)-1] != 5 || fs[len(fs)-1] != 1 {
		t.Fatalf("CDF must end at (5, 1); got (%g, %g)", xs[len(xs)-1], fs[len(fs)-1])
	}
}

func TestCDFDownsamples(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i)
	}
	xs, fs := CDF(samples, 10)
	if len(xs) > 12 { // 10 strided points plus the appended max
		t.Fatalf("downsampled CDF has %d points, want ~10", len(xs))
	}
	if xs[len(xs)-1] != 999 || fs[len(fs)-1] != 1 {
		t.Fatalf("downsampled CDF must end at (999, 1); got (%g, %g)",
			xs[len(xs)-1], fs[len(fs)-1])
	}
}

// Per-endpoint byte accounting must hold counts past the uint32 limit
// (the old counters wrapped at 4 GiB per endpoint-bucket).
func TestPerEndpointCountersPastUint32(t *testing.T) {
	s := newStats(1, NetworkConfig{Horizon: 2 * time.Hour})
	const chunk = 1 << 30 // 1 GiB per call
	for i := 0; i < 5; i++ {
		s.accountTx(0, ClassQuery, chunk, 0)
	}
	samples := s.PerEndpointHourSamples(false, 0, time.Hour)
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	want := 5.0 * chunk / time.Hour.Seconds()
	if samples[0] != want {
		t.Fatalf("5 GiB accounting = %g B/s, want %g (uint32 would have wrapped)",
			samples[0], want)
	}
}
