package experiments

import (
	"encoding/json"
	"testing"
)

// The CI smoke claim: the workload sweep is byte-deterministic across
// engine worker counts, and the ablations degrade interactive tail
// latency (the teeth).
func TestWorkloadSmoke(t *testing.T) {
	const n = 200
	w, ok := SmokeWorkload("heavy", 1)
	if !ok {
		t.Fatal("heavy workload preset missing")
	}

	s1 := Scale{Seed: 1, Workers: 1}
	r1 := WorkloadSweep(s1, n, w, true)
	s8 := Scale{Seed: 1, Workers: 8}
	r8 := WorkloadSweep(s8, n, w, true)

	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j8, err := r8.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j8) {
		t.Fatalf("sweep differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", j1, j8)
	}

	if len(r1.Variants) != 3 {
		t.Fatalf("got %d variants, want 3", len(r1.Variants))
	}
	full := r1.Variant("full").Class("interactive")
	if full.Started == 0 {
		t.Fatal("full scheduler started no interactive queries")
	}
	if !r1.AdmissionToothOK {
		t.Fatalf("admission ablation did not degrade interactive p99: full=%dms ablated=%dms",
			full.LatencyP99MS, r1.Variant("ablate-admission").Class("interactive").LatencyP99MS)
	}
	if !r1.PriorityToothOK {
		t.Fatalf("priority ablation did not degrade interactive p99: full=%dms ablated=%dms",
			full.LatencyP99MS, r1.Variant("ablate-priority").Class("interactive").LatencyP99MS)
	}
	if r1.Variant("ablate-admission").Class("interactive").Shed != 0 ||
		r1.Variant("ablate-admission").Class("batch").Shed != 0 {
		t.Fatal("admission-ablated variant shed queries")
	}

	// The JSON must round-trip (it is the `-workload W -out f` report format).
	var back WorkloadResult
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatalf("report json does not round-trip: %v", err)
	}
}
