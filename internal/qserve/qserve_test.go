package qserve

import (
	"encoding/json"
	"testing"
	"time"
)

// testWorkload is a small custom plan for unit tests: a 15-minute burst
// at moderate rates with a 45-minute drain.
func testWorkload() Workload {
	return Workload{
		Name: "test", Start: 2 * time.Hour, Window: 15 * time.Minute, Drain: 45 * time.Minute,
		Loads: []ClassLoad{
			{Class: Interactive, PerHour: 120, Clients: 8, Templates: InteractiveTemplates},
			{Class: Batch, PerHour: 16, Clients: 2, Templates: BatchTemplates},
		},
	}
}

func TestArrivalsDeterministicAndOrdered(t *testing.T) {
	w := Heavy(1)
	a1, a2 := w.Arrivals(7), w.Arrivals(7)
	if len(a1) == 0 {
		t.Fatal("no arrivals generated")
	}
	j1, _ := json.Marshal(a1)
	j2, _ := json.Marshal(a2)
	if string(j1) != string(j2) {
		t.Fatal("arrival sequence not deterministic for equal seeds")
	}
	for i := 1; i < len(a1); i++ {
		if a1[i].At < a1[i-1].At {
			t.Fatalf("arrivals out of order at %d: %s after %s", i, a1[i].At, a1[i-1].At)
		}
	}
	for _, a := range a1 {
		if a.At < w.Start || a.At >= w.Start+w.Window {
			t.Fatalf("arrival at %s outside window [%s, %s)", a.At, w.Start, w.Start+w.Window)
		}
	}
	if d := w.Arrivals(8); len(d) > 0 {
		jd, _ := json.Marshal(d)
		if string(jd) == string(j1) {
			t.Fatal("different seeds produced identical arrivals")
		}
	}
}

func TestSpikeRaisesArrivalRate(t *testing.T) {
	light, spike := Light(1), Spike(1)
	nl, ns := len(light.Arrivals(3)), len(spike.Arrivals(3))
	if ns <= nl {
		t.Fatalf("spike produced %d arrivals, light %d — spike window had no effect", ns, nl)
	}
	// The extra arrivals must land inside the spike window.
	inWindow := 0
	for _, a := range spike.Arrivals(3) {
		if a.At >= spike.SpikeAt && a.At < spike.SpikeAt+spike.SpikeFor {
			inWindow++
		}
	}
	expectBase := float64(nl) * float64(spike.SpikeFor) / float64(light.Window)
	if float64(inWindow) < 2*expectBase {
		t.Fatalf("spike window holds %d arrivals, want well above the base %.0f", inWindow, expectBase)
	}
}

func TestServiceRunsWorkloadEndToEnd(t *testing.T) {
	cfg := DefaultConfig(120, 5, testWorkload())
	rep := Run(cfg)
	if rep.Queries == 0 {
		t.Fatal("no queries arrived")
	}
	ic := rep.Class("interactive")
	if ic.Started == 0 {
		t.Fatal("no interactive query started")
	}
	if ic.Started > 0 && ic.ThroughputPerHour == 0 {
		t.Fatal("queries started but none reached 90% completeness")
	}
	if ic.LatencyP50MS <= 0 {
		t.Fatalf("interactive p50 latency %dms", ic.LatencyP50MS)
	}
	if ic.Arrived != ic.Shed+ic.Started+(ic.Arrived-ic.Shed-ic.Started) {
		t.Fatal("class accounting inconsistent")
	}
	bc := rep.Class("batch")
	if bc.Arrived == 0 {
		t.Fatal("no batch arrivals")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig(120, 5, testWorkload())
	r1, r2 := Run(cfg), Run(cfg)
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Fatalf("reports differ for identical configs:\n%s\n%s", j1, j2)
	}
}

func TestAdmissionShedsUnderTinyBudget(t *testing.T) {
	cfg := DefaultConfig(120, 5, testWorkload())
	// On the default pipe a new template's prediction is twice its hold
	// (c*unitHold, then the same again as the t90 prior): a one-minute
	// budget is below that for any query costing 2 units or more.
	cfg.DelayBudget = [NumClasses]time.Duration{Interactive: time.Minute, Batch: time.Minute}
	rep := Run(cfg)
	shed := rep.Class("interactive").Shed + rep.Class("batch").Shed
	if shed == 0 {
		t.Fatal("overloaded service shed nothing")
	}
	t.Logf("shed %d of %d queries", shed, rep.Queries)

	cfg.DisableAdmission = true
	rep = Run(cfg)
	if s := rep.Class("interactive").Shed + rep.Class("batch").Shed; s != 0 {
		t.Fatalf("admission-ablated service shed %d queries", s)
	}
}

func TestVariantNames(t *testing.T) {
	cfg := Config{}
	if cfg.Variant() != "full" {
		t.Fatalf("variant %q", cfg.Variant())
	}
	cfg.DisableAdmission = true
	if cfg.Variant() != "ablate-admission" {
		t.Fatalf("variant %q", cfg.Variant())
	}
	cfg.DisableAdmission, cfg.DisablePriority = false, true
	if cfg.Variant() != "ablate-priority" {
		t.Fatalf("variant %q", cfg.Variant())
	}
}
