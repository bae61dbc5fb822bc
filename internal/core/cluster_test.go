package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// smallCluster builds a compact packet-level cluster for tests.
func smallCluster(t *testing.T, n int, horizon time.Duration, seed int64) *Cluster {
	t.Helper()
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, seed))
	cfg := DefaultClusterConfig(trace, seed)
	cfg.Workload.MeanFlowsPerDay = 50
	return NewCluster(cfg)
}

// findLiveInjector returns an endsystem that is up at the current time.
func findLiveInjector(t *testing.T, c *Cluster) simnet.Endpoint {
	t.Helper()
	for i, n := range c.Nodes {
		if n.Alive() {
			return simnet.Endpoint(i)
		}
	}
	t.Fatal("no live endsystem")
	return 0
}

// lastUpdate returns a query's most recent result update, if any.
func lastUpdate(h *QueryHandle) (ResultUpdate, bool) {
	if len(h.Results) == 0 {
		return ResultUpdate{}, false
	}
	return h.Results[len(h.Results)-1], true
}

func TestClusterEndToEndQuery(t *testing.T) {
	c := smallCluster(t, 80, 3*24*time.Hour, 1)
	// Warm up: half a day of protocol activity and churn.
	c.RunUntil(36 * time.Hour)

	q := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 10*time.Minute)

	if h.Predictor == nil {
		t.Fatal("no completeness predictor arrived")
	}
	lat := h.PredictorAt - h.Injected
	if lat <= 0 || lat > 30*time.Second {
		t.Fatalf("predictor latency %v implausible", lat)
	}
	last, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no incremental results arrived")
	}
	if last.Contributors <= 0 || last.Partial.Count <= 0 {
		t.Fatalf("empty result: %+v", last)
	}
	// The live endsystems' rows should be covered quickly; compare
	// against ground truth from live nodes.
	var liveRows int64
	for _, n := range c.Nodes {
		if !n.Alive() {
			continue
		}
		cnt, err := n.tables["Flow"].CountMatching(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		liveRows += cnt
	}
	if float64(last.Partial.Count) < 0.85*float64(liveRows) {
		t.Fatalf("result covers %d rows, live endsystems hold %d", last.Partial.Count, liveRows)
	}
	if last.Partial.Count > c.TrueRelevantRows(q) {
		t.Fatal("result exceeds total relevant rows: double counting")
	}
}

func TestClusterIncrementalCompleteness(t *testing.T) {
	// Over hours after injection, completeness should grow as endsystems
	// come back, and never exceed 1.
	c := smallCluster(t, 60, 3*24*time.Hour, 2)
	c.RunUntil(24 * time.Hour) // inject at midnight: many machines down

	q := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	total := float64(c.TrueRelevantRows(q))
	if total == 0 {
		t.Fatal("query matches no rows")
	}
	c.RunUntil(c.Sched.Now() + 12*time.Hour)

	prev := int64(-1)
	for _, r := range h.Results {
		if r.Partial.Count > int64(total)+1 {
			t.Fatalf("rows processed %d exceed total %v", r.Partial.Count, total)
		}
		_ = prev
		prev = r.Partial.Count
	}
	last, _ := lastUpdate(h)
	initial := h.Results[0]
	if last.Partial.Count <= initial.Partial.Count {
		t.Logf("initial=%d final=%d", initial.Partial.Count, last.Partial.Count)
	}
	if float64(last.Partial.Count)/total < 0.8 {
		t.Fatalf("completeness after 12h = %.2f, want most rows",
			float64(last.Partial.Count)/total)
	}
}

func TestClusterPredictorTracksAvailability(t *testing.T) {
	c := smallCluster(t, 80, 3*24*time.Hour, 3)
	c.RunUntil(24 * time.Hour) // midnight: office machines off

	q := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 5*time.Minute)
	if h.Predictor == nil {
		t.Fatal("no predictor")
	}
	// Expected total should approximate the true total.
	total := float64(c.TrueRelevantRows(q))
	if math.Abs(h.Predictor.ExpectedTotal()-total)/total > 0.25 {
		t.Fatalf("predictor total %v vs true %v", h.Predictor.ExpectedTotal(), total)
	}
	// At midnight some rows must be non-immediate (machines off).
	if h.Predictor.Immediate >= h.Predictor.ExpectedTotal()*0.999 {
		t.Fatal("predictor claims everything immediate at midnight")
	}
}

func TestClusterBandwidthByClass(t *testing.T) {
	c := smallCluster(t, 60, 2*24*time.Hour, 4)
	c.RunUntil(12 * time.Hour)
	q := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	c.InjectQuery(findLiveInjector(t, c), q)
	c.RunUntil(36 * time.Hour)

	st := c.Net.Stats()
	maint := st.TotalTx(simnet.ClassMaintenance)
	pastryB := st.TotalTx(simnet.ClassPastry)
	query := st.TotalTx(simnet.ClassQuery)
	if maint == 0 || pastryB == 0 || query == 0 {
		t.Fatalf("missing class traffic: maint=%v pastry=%v query=%v", maint, pastryB, query)
	}
	// Maintenance, mostly full records after rejoins, stays above the
	// traffic of one query.
	if maint < query {
		t.Fatalf("maintenance (%v) should dominate query traffic (%v) with one query",
			maint, query)
	}
	// Mean per-online-endsystem rate should be tens of B/s, not kB/s.
	samples := st.PerEndpointHourSamples(false, 0, 36*time.Hour)
	mean := simnet.MeanExcludingZeros(samples)
	if mean < 1 || mean > 3000 {
		t.Fatalf("mean per-endsystem bandwidth %.1f B/s implausible", mean)
	}
}

func TestClusterRejoinSubmitsToActiveQuery(t *testing.T) {
	// An endsystem that is down at injection and comes up later must
	// learn of the query from its neighbors and contribute.
	c := smallCluster(t, 60, 3*24*time.Hour, 5)
	c.RunUntil(24 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 15*time.Minute)
	first, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no initial results")
	}
	// By mid-morning the overnight machines have rejoined.
	c.RunUntil(34 * time.Hour)
	last, _ := lastUpdate(h)
	if last.Contributors <= first.Contributors {
		t.Fatalf("contributors did not grow after rejoins: %d -> %d",
			first.Contributors, last.Contributors)
	}
}

func TestCompletenessSimBasic(t *testing.T) {
	n := 400
	horizon := 3 * avail.Week
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 6))
	w := anemone.DefaultConfig(horizon, 6)
	w.MeanFlowsPerDay = 100
	res := RunCompletenessStudy(CompletenessStudyConfig{
		Trace:     trace,
		Workload:  w,
		Queries:   []*relq.Query{relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")},
		InjectAts: []time.Duration{2 * avail.Week}, // Monday midnight after 2 weeks of warmup
		Lifetime:  48 * time.Hour,
	})[0][0]
	if res.TotalRelevantRows == 0 {
		t.Fatal("no relevant rows")
	}
	// Paper: total row-count prediction error < 0.5%; ours should be a
	// few percent at worst at this small scale.
	if e := math.Abs(res.TotalRowCountError()); e > 5 {
		t.Fatalf("total row-count error %.2f%%, want small", e)
	}
	// Both curves must be monotone nondecreasing, start below the total,
	// and converge upward.
	for j := 1; j < len(res.Delays); j++ {
		if res.ActualRows[j] < res.ActualRows[j-1] {
			t.Fatal("actual curve not monotone")
		}
		if res.PredictedRows[j] < res.PredictedRows[j-1]-1e-6 {
			t.Fatal("predicted curve not monotone")
		}
	}
	first, last := res.ActualRows[0], res.ActualRows[len(res.ActualRows)-1]
	if last <= first {
		t.Fatal("no rows arrived after injection — trace has no churn?")
	}
	// Completeness prediction error at the paper's checkpoints: the paper
	// reports < 5% at 51,663 endsystems; at 400 the sampling noise is
	// larger, so allow twice that.
	for _, d := range []time.Duration{time.Hour, 8 * time.Hour, 24 * time.Hour} {
		if e := math.Abs(res.PredictionErrorAt(d)); e > 10 {
			t.Fatalf("prediction error at %v = %.1f%%", d, e)
		}
	}
}

func TestCompletenessSimImmediateFraction(t *testing.T) {
	// Injecting at Tuesday noon (most machines up) must yield a high
	// immediate fraction; injecting at 3am a lower one.
	n := 300
	horizon := 3 * avail.Week
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 7))
	w := anemone.DefaultConfig(horizon, 7)
	w.MeanFlowsPerDay = 60
	base := CompletenessStudyConfig{
		Trace:    trace,
		Workload: w,
		Queries:  []*relq.Query{relq.MustParse("SELECT COUNT(*) FROM Flow")},
		Lifetime: 48 * time.Hour,
	}
	noon := base
	noon.InjectAts = []time.Duration{2*avail.Week + avail.Day + 12*time.Hour} // Tuesday noon
	night := base
	night.InjectAts = []time.Duration{2*avail.Week + avail.Day + 3*time.Hour} // Tuesday 3am

	rNoon := RunCompletenessStudy(noon)[0][0]
	rNight := RunCompletenessStudy(night)[0][0]
	fracNoon := rNoon.Predicted.Immediate / rNoon.Predicted.ExpectedTotal()
	fracNight := rNight.Predicted.Immediate / rNight.Predicted.ExpectedTotal()
	if fracNoon <= fracNight {
		t.Fatalf("immediate fraction noon (%.2f) should exceed 3am (%.2f)", fracNoon, fracNight)
	}
}

func TestCompletenessDeterministic(t *testing.T) {
	n := 100
	horizon := 2 * avail.Week
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, 8))
	w := anemone.DefaultConfig(horizon, 8)
	w.MeanFlowsPerDay = 40
	cfg := CompletenessStudyConfig{
		Trace:       trace,
		Workload:    w,
		Queries:     []*relq.Query{relq.MustParse("SELECT AVG(Bytes) FROM Flow WHERE App='SMB'")},
		InjectAts:   []time.Duration{avail.Week},
		Lifetime:    24 * time.Hour,
		Parallelism: 4,
	}
	a := RunCompletenessStudy(cfg)[0][0]
	cfg.Parallelism = 1
	b := RunCompletenessStudy(cfg)[0][0]
	if a.TotalRelevantRows != b.TotalRelevantRows {
		t.Fatal("parallelism changed the result")
	}
	for j := range a.Delays {
		if a.ActualRows[j] != b.ActualRows[j] || math.Abs(a.PredictedRows[j]-b.PredictedRows[j]) > 1e-9 {
			t.Fatal("parallelism changed the curves")
		}
	}
}

var _ = agg.Partial{} // keep import when assertions change

// TestTruthCountsKeepPlanCache: the truth counts pass the query itself to
// the tables, not a NOW()-bound copy per call. The plan cache is keyed by
// query pointer and holds 32 plans a table, so 40 counts of a NOW() query
// cost each endsystem one miss — not 40, with the plan of every query
// still running evicted on the way.
func TestTruthCountsKeepPlanCache(t *testing.T) {
	const n = 40
	cfg := DefaultClusterConfig(alwaysUpTrace(n, 24*time.Hour), 5)
	cfg.Workload.MeanFlowsPerDay = 50
	c := NewCluster(cfg)
	c.RunUntil(12 * time.Hour)
	misses, hits := c.Obs().Counter("plan_cache_misses"), c.Obs().Counter("plan_cache_hits")

	running := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE SrcPort=80")
	c.TrueRelevantRows(running)
	recent := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE ts >= NOW() - 3600")
	m0 := misses.Value()
	for i := 0; i < 40; i++ {
		c.RunUntil(c.Sched.Now() + time.Minute)
		// The count is the one a bound copy gives.
		var want int64
		now := int64(c.Sched.Now() / time.Second)
		for _, node := range c.Nodes {
			plan, err := node.tables["Flow"].Bind(recent.BindNow(now))
			if err != nil {
				t.Fatal(err)
			}
			want += plan.CountMatching(0)
		}
		if got := c.TrueRelevantRows(recent); got != want || got == 0 {
			t.Fatalf("count %d: %d rows, a bound copy counts %d", i, got, want)
		}
	}
	if got := misses.Value() - m0; got != n {
		t.Errorf("40 truth counts of a NOW() query missed the plan cache %d times, want one per endsystem (%d)", got, n)
	}
	m0, h0 := misses.Value(), hits.Value()
	c.TrueRelevantRows(running)
	if misses.Value() != m0 || hits.Value()-h0 != n {
		t.Errorf("a query executed before the truth counts: %d misses, %d hits; want 0 and %d", misses.Value()-m0, hits.Value()-h0, n)
	}
}
