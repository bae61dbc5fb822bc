package causal

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func ev(kind obs.Kind, q string, t time.Duration, span, parent uint64) obs.Event {
	return obs.Event{Kind: kind, Query: q, T: t, Span: span, Parent: parent}
}

// A linear chain decomposes edge by edge and the phases sum exactly.
func TestAnalyzeLinearChain(t *testing.T) {
	events := []obs.Event{
		ev(obs.KindQueued, "", 0, 1, 0),
		ev(obs.KindStarted, "", 10*time.Second, 2, 1),
		ev(obs.KindInject, "q1", 10*time.Second, 3, 2),
		ev(obs.KindDisseminate, "q1", 11*time.Second, 4, 3),
		ev(obs.KindExec, "q1", 11*time.Second, 5, 4),
		ev(obs.KindSubmit, "q1", 12*time.Second, 6, 5),
		ev(obs.KindPartial, "q1", 14*time.Second, 7, 6),
		ev(obs.KindComplete, "q1", 14*time.Second, 8, 7),
	}
	bds := Analyze(events)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	b := bds[0]
	if b.Query != "q1" || b.Terminal != obs.KindComplete {
		t.Fatalf("query %s terminal %s", b.Query, b.Terminal)
	}
	if b.Total != 14*time.Second || b.Start != 0 || b.End != 14*time.Second {
		t.Fatalf("span [%v,%v] total %v", b.Start, b.End, b.Total)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	want := map[Phase]time.Duration{
		PhaseQueueWait:   10 * time.Second, // ->started, ->inject
		PhaseRouting:     time.Second,      // ->disseminate
		PhaseExecution:   time.Second,      // ->exec (0) + ->submit (1s)
		PhaseAggregation: 2 * time.Second,  // ->partial + ->complete
	}
	for p, d := range want {
		if b.Phases[p] != d {
			t.Errorf("phase %s = %v, want %v", p, b.Phases[p], d)
		}
	}
	if len(b.Path) != len(events) {
		t.Fatalf("path %d steps, want %d", len(b.Path), len(events))
	}
}

// The terminal ranking prefers complete over cancel over the last
// partial, and falls back to the inject itself.
func TestAnalyzeTerminalRanking(t *testing.T) {
	events := []obs.Event{
		ev(obs.KindInject, "a", 0, 1, 0),
		ev(obs.KindPartial, "a", time.Second, 2, 1),
		ev(obs.KindPartial, "a", 3*time.Second, 3, 2),
		ev(obs.KindInject, "b", 0, 4, 0),
		ev(obs.KindPartial, "b", time.Second, 5, 4),
		ev(obs.KindCancel, "b", 2*time.Second, 6, 5),
		ev(obs.KindInject, "c", 5*time.Second, 7, 0),
	}
	bds := Analyze(events)
	if len(bds) != 3 {
		t.Fatalf("got %d breakdowns", len(bds))
	}
	byQ := map[string]*Breakdown{}
	for _, b := range bds {
		byQ[b.Query] = b
	}
	if byQ["a"].Terminal != obs.KindPartial || byQ["a"].Total != 3*time.Second {
		t.Errorf("a: terminal %s total %v, want last partial at 3s", byQ["a"].Terminal, byQ["a"].Total)
	}
	if byQ["b"].Terminal != obs.KindCancel {
		t.Errorf("b: terminal %s, want cancel", byQ["b"].Terminal)
	}
	if byQ["c"].Terminal != obs.KindInject || byQ["c"].Total != 0 || len(byQ["c"].Path) != 1 {
		t.Errorf("c: terminal %s total %v path %d", byQ["c"].Terminal, byQ["c"].Total, len(byQ["c"].Path))
	}
	if err := byQ["a"].Check(); err != nil {
		t.Error(err)
	}
}

// Dissemination retries and give-ups count per query whether or not they
// sit on the critical path, and the rendered breakdown reports them.
func TestAnalyzeCountsDissemCosts(t *testing.T) {
	events := []obs.Event{
		ev(obs.KindInject, "a", 0, 1, 0),
		ev(obs.KindDissemRetry, "a", time.Second, 2, 1),
		ev(obs.KindDissemRetry, "a", 2*time.Second, 3, 1),
		{Kind: obs.KindDissemGiveup, Query: "a", T: 3 * time.Second, Span: 4, Parent: 3, V: 0.125},
		ev(obs.KindPartial, "a", 4*time.Second, 5, 1),
		ev(obs.KindInject, "b", time.Second, 6, 0),
		ev(obs.KindComplete, "b", 2*time.Second, 7, 6),
	}
	bds := Analyze(events)
	if len(bds) != 2 {
		t.Fatalf("got %d breakdowns", len(bds))
	}
	a, b := bds[0], bds[1]
	if a.Query != "a" || a.Retries != 2 || a.Giveups != 1 || a.LostRange != 0.125 {
		t.Fatalf("a: %s retries %d giveups %d lost %v", a.Query, a.Retries, a.Giveups, a.LostRange)
	}
	if a.Total != 4*time.Second || a.Phases[PhaseRetryBackoff] != 0 {
		t.Fatalf("off-path retries moved the decomposition: total %v, retry_backoff %v",
			a.Total, a.Phases[PhaseRetryBackoff])
	}
	if b.Retries != 0 || b.Giveups != 0 || b.LostRange != 0 {
		t.Fatalf("b: retries %d giveups %d lost %v", b.Retries, b.Giveups, b.LostRange)
	}
	var sb strings.Builder
	WriteBreakdown(&sb, a)
	WriteBreakdown(&sb, b)
	if out := sb.String(); !strings.Contains(out, "dissem retries 2, giveups 1 (12.50% of the namespace lost)") ||
		strings.Count(out, "dissem retries") != 1 {
		t.Fatalf("rendered breakdowns:\n%s", out)
	}
}

// Spanless traces (older runs) still enumerate queries, with single-event
// paths and empty decompositions.
func TestAnalyzeSpanlessTrace(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindInject, Query: "q", T: time.Second},
		{Kind: obs.KindComplete, Query: "q", T: 3 * time.Second},
	}
	bds := Analyze(events)
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns", len(bds))
	}
	b := bds[0]
	if len(b.Path) != 1 || len(b.Phases) != 0 || b.Total != 0 {
		t.Fatalf("spanless breakdown: path %d phases %d total %v", len(b.Path), len(b.Phases), b.Total)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
}

// A corrupt parent cycle must not hang the walk.
func TestAnalyzeCycleGuard(t *testing.T) {
	events := []obs.Event{
		ev(obs.KindInject, "q", 0, 1, 2),
		ev(obs.KindComplete, "q", time.Second, 2, 1),
	}
	bds := Analyze(events)
	if len(bds) != 1 || len(bds[0].Path) != 2 {
		t.Fatalf("cycle walk: %d breakdowns, path %d", len(bds), len(bds[0].Path))
	}
}

// Every trace kind maps to a phase, and the documented mappings hold.
func TestPhaseOf(t *testing.T) {
	cases := map[obs.Kind]Phase{
		obs.KindQueued:      PhaseQueueWait,
		obs.KindDisseminate: PhaseRouting,
		obs.KindDissemRetry: PhaseRetryBackoff,
		obs.KindAggResubmit: PhaseRetryBackoff,
		obs.KindExec:        PhaseExecution,
		obs.KindAvailExec:   PhaseAvailabilityWait,
		obs.KindPartial:     PhaseAggregation,
		obs.KindComplete:    PhaseAggregation,
		obs.KindFaultHeal:   PhaseOther,
	}
	for k, want := range cases {
		if got := PhaseOf(k); got != want {
			t.Errorf("PhaseOf(%s) = %s, want %s", k, got, want)
		}
	}
}

func TestSummarizeAndRender(t *testing.T) {
	mk := func(q string, total, queue time.Duration) *Breakdown {
		return &Breakdown{
			Query: q, Total: total, End: total, Terminal: obs.KindComplete,
			Phases: map[Phase]time.Duration{
				PhaseQueueWait: queue,
				PhaseRouting:   total - queue,
			},
		}
	}
	bds := []*Breakdown{
		mk("a", 10*time.Second, 2*time.Second),
		mk("b", 20*time.Second, 4*time.Second),
		mk("c", 30*time.Second, 6*time.Second),
	}
	a := Summarize(bds)
	if a.Queries != 3 || a.TotalP50 != 20*time.Second || a.TotalP99 != 30*time.Second {
		t.Fatalf("aggregate %+v", a)
	}
	var qw *PhaseStats
	for i := range a.Phases {
		if a.Phases[i].Phase == PhaseQueueWait {
			qw = &a.Phases[i]
		}
	}
	if qw == nil || qw.Mean != 4*time.Second || qw.Share != 0.2 {
		t.Fatalf("queue_wait stats %+v", qw)
	}

	var sb strings.Builder
	WriteAggregate(&sb, a)
	WriteBreakdown(&sb, bds[0])
	WritePath(&sb, bds[0])
	out := sb.String()
	for _, frag := range []string{"delay decomposition over 3 queries", "queue_wait", "query a"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendered output missing %q:\n%s", frag, out)
		}
	}

	empty := Summarize(nil)
	if empty.Queries != 0 || empty.TotalP99 != 0 {
		t.Fatalf("empty aggregate %+v", empty)
	}

	// Nearest rank: the p99 of 100 totals is the 99th, not the maximum.
	var hundred []*Breakdown
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, mk("q", time.Duration(i)*time.Second, 0))
	}
	if a := Summarize(hundred); a.TotalP99 != 99*time.Second || a.TotalP50 != 50*time.Second {
		t.Fatalf("totals 1..100 s: p50 %v, p99 %v; want 50s, 99s", a.TotalP50, a.TotalP99)
	}
	// The median of two totals is the smaller one.
	if a := Summarize(bds[:2]); a.TotalP50 != 10*time.Second {
		t.Fatalf("two totals: p50 %v, want 10s", a.TotalP50)
	}
}
