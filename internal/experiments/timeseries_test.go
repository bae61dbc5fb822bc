package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

// A time-series sampler on the shared Obs must not perturb results and
// must produce byte-identical JSONL no matter the requested worker
// count: sampling (like tracing) forces the series serial, because
// samples are an ordered stream on the shared layer.
func TestTimeseriesByteDeterministicAcrossWorkers(t *testing.T) {
	const n = 200
	w, ok := SmokeWorkload("light", 1)
	if !ok {
		t.Fatal("light workload preset missing")
	}
	run := func(workers int) []byte {
		var buf bytes.Buffer
		o := obs.New()
		sw := obs.NewSampleWriter(&buf)
		o.SetSampler(sw)
		WorkloadSweep(Scale{Seed: 3, Workers: workers, Obs: o}, n, w, true)
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1 := run(1)
	b8 := run(8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("time series differs between 1 and 8 workers:\n--- workers=1 (%d bytes)\n%s\n--- workers=8 (%d bytes)\n%s",
			len(b1), b1, len(b8), b8)
	}
	samples, err := obs.ReadSamples(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("sampler produced no samples")
	}
	// Samples restart per run (three sweep variants share the Obs
	// serially); within a run the clock advances monotonically.
	var prev time.Duration
	restarts := 0
	for _, s := range samples {
		if s.T <= prev {
			restarts++
			if s.T != time.Minute {
				t.Fatalf("restarted series begins at %v, want one period", s.T)
			}
		}
		prev = s.T
		if s.Live <= 0 || s.Live > n {
			t.Fatalf("sample live=%d outside (0,%d]", s.Live, n)
		}
	}
	if restarts != 2 {
		t.Fatalf("saw %d series restarts, want 2 (three serial variants)", restarts)
	}
}
