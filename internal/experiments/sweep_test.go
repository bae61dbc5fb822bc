package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// sweepJSONL runs the completeness sweep at the given worker count with
// an observability layer attached and returns the JSONL serialization of
// its records and the layer's registry as JSON.
func sweepJSONL(t *testing.T, workers int) ([]byte, []byte, *CompletenessSweepResult) {
	t.Helper()
	s := tinyScale()
	s.Workers = workers
	s.Obs = obs.New()
	var buf, metrics bytes.Buffer
	sinks := []runner.Sink{runner.NewJSONLSink(&buf)}
	r := CompletenessSweep(s, sinks)
	if err := runner.CloseAll(sinks); err != nil {
		t.Fatal(err)
	}
	if err := s.Obs.Registry().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), metrics.Bytes(), r
}

func TestCompletenessSweepDeterministicAcrossWorkers(t *testing.T) {
	// The acceptance guarantee: same seed, -parallel 1 vs -parallel 8,
	// byte-identical per-run records and metrics (the registry is
	// virtual-time only: no host wall time may leak into it).
	serial, m1, r1 := sweepJSONL(t, 1)
	wide, m8, r8 := sweepJSONL(t, 8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("sweep records differ between 1 and 8 workers:\n%s\nvs\n%s",
			serial[:200], wide[:200])
	}
	if !bytes.Equal(m1, m8) {
		t.Fatalf("sweep metrics differ between 1 and 8 workers:\n%s\nvs\n%s", m1, m8)
	}
	if n := bytes.Count(serial, []byte("\n")); n != 4*7 {
		t.Fatalf("sweep emitted %d records, want 28 (4 figures x 7 injections)", n)
	}
	if len(r1.Figures) != 4 {
		t.Fatalf("sweep produced %d figures", len(r1.Figures))
	}
	if r1.Stats.Runs == 0 || r8.Stats.Runs == 0 {
		t.Fatal("engine stats not accumulated")
	}
	// The shape claim of Figures 5–8 must survive the sweep path.
	for _, f := range r1.Figures {
		if f.MaxAbsError() > 25 {
			t.Fatalf("figure %d max error %.1f%% implausible at tiny scale",
				f.Figure, f.MaxAbsError())
		}
	}

	// The sweep figure must equal the standalone per-figure path: both are
	// cells of the same deterministic study.
	s := tinyScale()
	single := RunCompletenessFigure(s, 1)
	var a, b bytes.Buffer
	single.Render(&a)
	r1.Figures[1].Render(&b)
	if a.String() != b.String() {
		t.Fatal("standalone figure differs from the sweep's study cell")
	}

	var out strings.Builder
	r1.Render(&out)
	if !strings.Contains(out.String(), "# sweep:") {
		t.Fatal("sweep render missing engine summary line")
	}
}
