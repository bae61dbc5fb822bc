package fault

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// testNet builds a network over a uniform topology where every router is
// its own failure region, so partitions can be tested at single-router
// granularity.
func testNet(n int, seed int64) (*simnet.Wheel, *simnet.Network) {
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	cfg := simnet.DefaultNetworkConfig()
	cfg.Seed = seed
	return sched, simnet.NewNetwork(sched, topo, n, cfg)
}

func TestInjectionHeal(t *testing.T) {
	in := Injection{Type: Partition, At: 10 * time.Minute, Duration: 5 * time.Minute}
	if got := in.Heal(); got != 15*time.Minute {
		t.Fatalf("Heal() = %v, want 15m", got)
	}
	forever := Injection{Type: BurstLoss, At: time.Minute}
	if got := forever.Heal(); got != -1 {
		t.Fatalf("Heal() of non-healing injection = %v, want -1", got)
	}
}

func TestScenarioFinalHeal(t *testing.T) {
	s := Scenario{Injections: []Injection{
		{Type: Jitter, At: 1 * time.Minute, Duration: 2 * time.Minute},
		{Type: Partition, At: 5 * time.Minute, Duration: 10 * time.Minute},
		{Type: BurstLoss, At: 30 * time.Minute}, // never heals: excluded
	}}
	if got := s.FinalHeal(); got != 15*time.Minute {
		t.Fatalf("FinalHeal() = %v, want 15m", got)
	}
	if got := (Scenario{}).FinalHeal(); got != 0 {
		t.Fatalf("FinalHeal() of empty scenario = %v, want 0", got)
	}
}

func TestBuiltinScenarios(t *testing.T) {
	for _, name := range BuiltinNames() {
		for _, smoke := range []bool{false, true} {
			s, ok := Builtin(name, smoke)
			if !ok {
				t.Fatalf("Builtin(%q, %v) unknown", name, smoke)
			}
			if len(s.Injections) == 0 {
				t.Fatalf("scenario %q has no injections", s.Name)
			}
			if s.QueryAt <= 0 {
				t.Fatalf("scenario %q has no query instant", s.Name)
			}
			if s.FinalHeal() <= 0 {
				t.Fatalf("scenario %q never heals", s.Name)
			}
		}
	}
	if _, ok := Builtin("no-such-scenario", false); ok {
		t.Fatal("unknown scenario name reported as known")
	}
}

// endpointsByRegion groups every endpoint by its topology region.
func endpointsByRegion(net *simnet.Network) map[int][]simnet.Endpoint {
	byRegion := make(map[int][]simnet.Endpoint)
	topo := net.Topology()
	for ep := 0; ep < net.NumEndpoints(); ep++ {
		r := topo.Region(net.RouterOf(simnet.Endpoint(ep)))
		byRegion[r] = append(byRegion[r], simnet.Endpoint(ep))
	}
	return byRegion
}

func TestPartitionFateAndOracle(t *testing.T) {
	sched, net := testNet(16, 7)
	s := Scenario{Name: "p", Injections: []Injection{
		{Type: Partition, At: time.Minute, Duration: time.Minute, Region: 1},
	}}
	inj := NewInjector(net, s, 7)
	inj.Start()

	byRegion := endpointsByRegion(net)
	if len(byRegion[1]) == 0 || len(byRegion[0]) == 0 {
		t.Skip("attachment left a test region empty")
	}
	in, out := byRegion[1][0], byRegion[0][0]
	fate := func(a, b simnet.Endpoint) simnet.Fate {
		return inj.OnSend(a, b, net.RouterOf(a), net.RouterOf(b), simnet.ClassQuery)
	}

	// Before activation: everything flows.
	if fate(in, out).Drop || !inj.Reachable(in, out) {
		t.Fatal("fault active before its At")
	}

	sched.RunUntil(90 * time.Second) // mid-partition
	if !fate(in, out).Drop || !fate(out, in).Drop {
		t.Fatal("cross-cut traffic not dropped during partition")
	}
	if inj.Reachable(in, out) || inj.Reachable(out, in) {
		t.Fatal("oracle says cut endpoints reachable")
	}
	if len(byRegion[1]) > 1 {
		if fate(in, byRegion[1][1]).Drop {
			t.Fatal("intra-region traffic dropped during partition")
		}
	}
	if fate(out, byRegion[2][0]).Drop {
		t.Fatal("rest-of-network traffic dropped during partition")
	}

	sched.RunUntil(3 * time.Minute) // healed
	if fate(in, out).Drop || !inj.Reachable(in, out) {
		t.Fatal("partition did not heal")
	}
	rep := inj.Report()
	if len(rep.Injections) != 1 || rep.Injections[0].Healed != 2*time.Minute {
		t.Fatalf("report: %+v", rep.Injections)
	}
}

func TestReachabilityChangeNotified(t *testing.T) {
	sched, net := testNet(8, 3)
	s := Scenario{Name: "p", Injections: []Injection{
		{Type: Partition, At: time.Minute, Duration: time.Minute, Region: 0},
	}}
	inj := NewInjector(net, s, 3)
	changes := 0
	inj.OnChange(func() { changes++ })
	inj.Start()
	sched.RunUntil(3 * time.Minute)
	if changes != 2 { // one on cut, one on heal
		t.Fatalf("reachability listeners ran %d times, want 2", changes)
	}
}

func TestDuplicateAndDelayFates(t *testing.T) {
	sched, net := testNet(8, 5)
	s := Scenario{Name: "d", Injections: []Injection{
		{Type: Duplicate, At: 0, Duration: time.Minute, DupProb: 1.0},
		{Type: Jitter, At: 0, Duration: time.Minute, JitterMax: 50 * time.Millisecond},
		{Type: Spike, At: 0, Duration: time.Minute, SpikeDelay: 200 * time.Millisecond},
	}}
	inj := NewInjector(net, s, 5)
	inj.Start()
	sched.RunUntil(time.Second)
	f := inj.OnSend(0, 1, net.RouterOf(0), net.RouterOf(1), simnet.ClassQuery)
	if !f.Duplicate {
		t.Fatal("DupProb 1.0 did not duplicate")
	}
	if f.ExtraDelay < 200*time.Millisecond || f.ExtraDelay > 250*time.Millisecond {
		t.Fatalf("ExtraDelay = %v, want spike 200ms + jitter [0,50ms)", f.ExtraDelay)
	}
	sched.RunUntil(2 * time.Minute)
	f = inj.OnSend(0, 1, net.RouterOf(0), net.RouterOf(1), simnet.ClassQuery)
	if f.Duplicate || f.ExtraDelay != 0 {
		t.Fatalf("fate after heal: %+v, want clean", f)
	}
}

func TestBurstLossDeterminism(t *testing.T) {
	run := func() []bool {
		sched, net := testNet(8, 11)
		s := Scenario{Name: "b", Injections: []Injection{
			{Type: BurstLoss, At: 0, Duration: 10 * time.Minute,
				GoodLoss: 0.1, BadLoss: 0.9,
				MeanGood: 5 * time.Second, MeanBad: 5 * time.Second},
		}}
		inj := NewInjector(net, s, 11)
		inj.Start()
		var drops []bool
		for i := 0; i < 200; i++ {
			sched.RunUntil(time.Duration(i) * time.Second / 2)
			f := inj.OnSend(0, 1, net.RouterOf(0), net.RouterOf(1), simnet.ClassQuery)
			drops = append(drops, f.Drop)
		}
		return drops
	}
	a, b := run(), run()
	sawDrop, sawPass := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("burst channel diverged at draw %d", i)
		}
		if a[i] {
			sawDrop = true
		} else {
			sawPass = true
		}
	}
	if !sawDrop || !sawPass {
		t.Fatalf("degenerate burst channel: drop=%v pass=%v", sawDrop, sawPass)
	}
}

func TestCrashCohort(t *testing.T) {
	sched, net := testNet(16, 9)
	s := Scenario{Name: "c", Injections: []Injection{
		{Type: Crash, At: time.Minute, Duration: time.Minute, Region: 2},
	}}
	inj := NewInjector(net, s, 9)
	down := make(map[simnet.Endpoint]bool)
	inj.SetCrashFunc(func(ep simnet.Endpoint, d bool) { down[ep] = d })
	inj.Start()

	cohort := inj.EndpointsInRegion(2)
	if len(cohort) == 0 {
		t.Skip("attachment left region 2 empty")
	}
	sched.RunUntil(90 * time.Second)
	for _, ep := range cohort {
		if !down[ep] {
			t.Fatalf("endpoint %d not crashed mid-window", ep)
		}
	}
	sched.RunUntil(3 * time.Minute)
	for ep, d := range down {
		if d {
			t.Fatalf("endpoint %d not restarted after heal", ep)
		}
	}
	rep := inj.Report()
	if rep.Injections[0].Endpoints != len(cohort) {
		t.Fatalf("report records %d crashed endpoints, cohort is %d",
			rep.Injections[0].Endpoints, len(cohort))
	}
}

func TestCheckerExactlyOnce(t *testing.T) {
	c := NewChecker(nil)
	c.ObserveResult("q", 99, 100, 50, 60) // fine
	if len(c.Violations()) != 0 {
		t.Fatalf("clean result violated: %v", c.Violations())
	}
	c.ObserveResult("q", 101, 100, 50, 60) // rows above truth
	c.ObserveResult("q", 80, 100, 70, 60)  // contributors above population
	if len(c.Violations()) != 2 {
		t.Fatalf("got %d violations, want 2", len(c.Violations()))
	}
	if c.SealInvariant(InvariantExactlyOnce, "ok") {
		t.Fatal("seal passed despite violations")
	}
}

func TestCheckerCheckAndSeal(t *testing.T) {
	c := NewChecker(nil)
	if !c.Check("inv-a", true, "fine") {
		t.Fatal("passing check returned false")
	}
	if c.Check("inv-b", false, "broken") {
		t.Fatal("failing check returned true")
	}
	if !c.SealInvariant("inv-c", "never violated") {
		t.Fatal("clean seal failed")
	}
	verdicts := c.Verdicts()
	if len(verdicts) != 3 || verdicts[0].Pass != true || verdicts[1].Pass != false || verdicts[2].Pass != true {
		t.Fatalf("verdicts: %+v", verdicts)
	}
	if len(c.Violations()) != 1 {
		t.Fatalf("violations: %+v", c.Violations())
	}
}

func TestCheckerFatal(t *testing.T) {
	c := NewChecker(nil)
	c.FatalOnViolation = true
	defer func() {
		if recover() == nil {
			t.Fatal("FatalOnViolation did not panic")
		}
	}()
	c.Violate(InvariantExactlyOnce, "boom")
}

func TestTraceVisibility(t *testing.T) {
	// Injector events reach the checker through an obs tracer, and the
	// visibility invariant ties the report to the observed trace.
	sched, net := testNet(8, 13)
	checker := NewChecker(sched.Now)
	o := obs.New()
	o.SetTracer(obs.NewTracer(FanoutSink{Checker: checker}))
	net.SetObs(o)
	s := Scenario{Name: "v", Injections: []Injection{
		{Type: Partition, At: time.Minute, Duration: time.Minute, Region: 1},
		{Type: Duplicate, At: time.Minute, Duration: time.Minute, DupProb: 0.5},
	}}
	inj := NewInjector(net, s, 13)
	inj.Start()
	sched.RunUntil(3 * time.Minute)
	rep := inj.Report()
	if !checker.VerifyTraceVisibility(rep) {
		t.Fatalf("trace visibility failed: %+v", checker.Violations())
	}

	// A checker that saw nothing must fail the same report.
	blind := NewChecker(nil)
	if blind.VerifyTraceVisibility(rep) {
		t.Fatal("blind checker passed trace visibility")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		Scenario: "mixed",
		Seed:     42,
		Injections: []InjectionRecord{
			{Index: 0, Type: Partition, At: time.Minute, Healed: 2 * time.Minute, Region: 1},
			{Index: 1, Type: Crash, At: time.Minute, Healed: -1, Region: 2, Endpoints: 7},
		},
		Queries: []QueryVerdict{{Query: "q", TruthRows: 100, RowsAtFinalHeal: 80,
			FinalRows: 100, CompletenessAtHeal: 0.8, FinalCompleteness: 1.0, RecoveredAfterHeal: true}},
		Invariants: []InvariantVerdict{{Invariant: InvariantExactlyOnce, Pass: true}},
	}
	if !r.OK() {
		t.Fatal("clean report not OK")
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"PASS", "partition", "never", "recovered after heal"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
	j1, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := r.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON encoding not stable")
	}

	r.Violations = append(r.Violations, Violation{Invariant: InvariantCompleteness, Detail: "x"})
	if r.OK() {
		t.Fatal("report with violations OK")
	}
}

// The flight recorder freezes the most recent trace events at the first
// violation — later events must not evict them — and FillReport ships
// them in the chaos report.
func TestCheckerFlightRecorder(t *testing.T) {
	c := NewChecker(nil)
	if c.FlightRecording() != nil {
		t.Fatal("flight recording before any violation")
	}
	// More events than the ring holds: only the most recent survive.
	for i := 0; i < FlightRecorderDepth+100; i++ {
		c.ObserveEvent(obs.Event{Kind: obs.KindPartial, N: int64(i)})
	}
	c.Violate(InvariantExactlyOnce, "boom")
	rec := c.FlightRecording()
	if len(rec) != FlightRecorderDepth {
		t.Fatalf("flight recording holds %d events, want %d", len(rec), FlightRecorderDepth)
	}
	if first := rec[0].N; first != 100 {
		t.Fatalf("oldest retained event N=%d, want 100", first)
	}
	if last := rec[len(rec)-1].N; last != int64(FlightRecorderDepth+99) {
		t.Fatalf("newest retained event N=%d, want %d", last, FlightRecorderDepth+99)
	}
	// Post-violation events do not evict the frozen recording.
	c.ObserveEvent(obs.Event{Kind: obs.KindCancel, N: 9999})
	c.Violate(InvariantCompleteness, "again")
	if got := c.FlightRecording(); got[len(got)-1].N == 9999 {
		t.Fatal("frozen recording was overwritten by post-violation events")
	}
	var r Report
	c.FillReport(&r)
	if len(r.FlightRecorder) != FlightRecorderDepth {
		t.Fatalf("report carries %d flight events, want %d", len(r.FlightRecorder), FlightRecorderDepth)
	}
}
