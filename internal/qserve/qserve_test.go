package qserve

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
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

// captureSink accumulates every trace event in record order.
type captureSink struct{ events []obs.Event }

func (s *captureSink) Record(ev obs.Event) { s.events = append(s.events, ev) }

// The service walks every arrival through its lifecycle: the lifecycle
// counters agree with the report, shed queries are lone trace roots, and
// every started query chains queued → started → inject, so its causal
// path runs back to its arrival. queries_active counts exactly the
// injected queries with neither a complete nor a cancel event.
func TestServiceLifecycle(t *testing.T) {
	cfg := DefaultConfig(120, 5, testWorkload())
	// Tight enough that admission sheds some arrivals, loose enough that
	// others run.
	cfg.DelayBudget = [NumClasses]time.Duration{Interactive: 2 * time.Minute, Batch: time.Minute}
	sink := &captureSink{}
	cfg.Cluster.Obs = obs.New()
	cfg.Cluster.Obs.SetTracer(obs.NewTracer(sink))
	rep := Run(cfg)

	var shed, started int
	for _, c := range rep.Classes {
		shed += c.Shed
		started += c.Started
	}
	if shed == 0 || started == 0 {
		t.Fatalf("want both shed and started queries: shed %d started %d", shed, started)
	}
	t.Logf("%d queries: %d shed, %d started", rep.Queries, shed, started)
	r := cfg.Cluster.Obs.Registry()
	if got := r.Counter("queries_admitted").Value(); got != uint64(rep.Queries) {
		t.Fatalf("queries_admitted = %d, report has %d queries", got, rep.Queries)
	}
	if got := r.Counter("queries_shed").Value(); got != uint64(shed) {
		t.Fatalf("queries_shed = %d, report sheds %d", got, shed)
	}
	if r.Counter("queries_cancelled").Value() == 0 {
		t.Fatal("no started query was retired by a cancel")
	}

	kind := map[uint64]obs.Kind{}
	count := map[obs.Kind]int{}
	ended := map[string]bool{}
	var injected []string
	for _, ev := range sink.events {
		kind[ev.Span] = ev.Kind
		count[ev.Kind]++
		switch ev.Kind {
		case obs.KindShed:
			if ev.Parent != 0 {
				t.Fatalf("shed query %d chains to span %d; admission sheds on arrival", ev.N, ev.Parent)
			}
		case obs.KindStarted:
			if kind[ev.Parent] != obs.KindQueued {
				t.Fatalf("started query %d chains to a %q event", ev.N, kind[ev.Parent])
			}
		case obs.KindInject:
			if kind[ev.Parent] != obs.KindStarted {
				t.Fatalf("inject %s chains to a %q event", ev.Query, kind[ev.Parent])
			}
			injected = append(injected, ev.Query)
		case obs.KindComplete, obs.KindCancel:
			ended[ev.Query] = true
		}
	}
	if count[obs.KindShed] != shed || count[obs.KindQueued] != rep.Queries-shed ||
		count[obs.KindStarted] != started || len(injected) != started {
		t.Fatalf("trace has %d shed, %d queued, %d started, %d inject events; report: %d queries, %d shed, %d started",
			count[obs.KindShed], count[obs.KindQueued], count[obs.KindStarted], len(injected),
			rep.Queries, shed, started)
	}
	active := 0
	for _, q := range injected {
		if !ended[q] {
			active++
		}
	}
	if got := r.Gauge("queries_active").Value(); got != float64(active) {
		t.Fatalf("queries_active = %v, %d injected queries have not ended", got, active)
	}
}
