package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestPairedStudyPoolsPerArm: PairedStudy pools each arm's samples across
// seeds in seed order, averages its values per run, ranks a delay that was
// never reached above every finite one and renders it as "never".
func TestPairedStudyPoolsPerArm(t *testing.T) {
	r := PairedStudy("synthetic", []string{"a", "b"}, []int64{1, 2}, 2, func(seed int64, arm int) PairedRun {
		d := []time.Duration{time.Duration(seed) * time.Second, time.Duration(10*seed) * time.Second}
		if arm == 1 && seed == 2 {
			d[1] = never
		}
		return PairedRun{
			Samples: map[string][]time.Duration{"delay": d},
			Values:  map[string]float64{"v": float64(seed + 10*int64(arm))},
			OK:      arm == 0,
		}
	})
	want := []time.Duration{time.Second, 10 * time.Second, 2 * time.Second, 20 * time.Second}
	if got := r.Pooled[0]["delay"]; !slices.Equal(got, want) {
		t.Fatalf("arm a pooled %v, want %v", got, want)
	}
	if got := r.Quantile(0, "delay", 0.5); got != 2*time.Second {
		t.Fatalf("arm a p50 = %v, want the 2nd of 4, 2s", got)
	}
	if got := r.Quantile(1, "delay", 0.99); got != never {
		t.Fatalf("arm b p99 = %v, want never", got)
	}
	if got := r.Means[1]["v"]; got != 11.5 {
		t.Fatalf("arm b mean v = %g, want 11.5", got)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	for _, line := range []string{"delay_p99\t20s\tnever", "v_mean\t1.5\t11.5", "ok_runs\t2\t0"} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("render lacks %q:\n%s", line, buf.String())
		}
	}
}
