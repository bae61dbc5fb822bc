package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("counter handle not stable across lookups")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Obs
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x").Observe(1)
	o.DurationHistogram("x").ObserveDuration(time.Second)
	o.Emit(Event{Kind: KindInject})
	o.EmitDetail(Event{Kind: KindRouteDeliver})
	o.BindClock(func() time.Duration { return 0 })
	o.SetTracer(nil)
	if o.Tracing() {
		t.Fatal("nil Obs reports tracing")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x") != nil || r.Gauge("x") != nil {
		t.Fatal("nil registry returned non-nil handle")
	}
	var sb strings.Builder
	r.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "disabled") {
		t.Fatalf("nil registry summary = %q", sb.String())
	}
}

// TestHistogramBucketing pins the HDR-style log-linear boundaries:
// values below 16 are exact (one bucket each), and every power-of-two
// range [2^(l-1), 2^l) above that splits into 16 equal sub-buckets, so
// relative bucket width never exceeds 1/16.
func TestHistogramBucketing(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33, 1023, 1024} {
		h.Observe(v)
	}
	wantBuckets := map[int]uint64{
		0:   1, // value 0 (exact region)
		1:   1, // value 1
		2:   1, // value 2
		3:   1, // value 3
		4:   1, // value 4
		7:   1, // value 7
		8:   1, // value 8
		15:  1, // value 15
		16:  1, // value 16: first sub-bucket of [16,32)
		31:  1, // value 31: last sub-bucket of [16,32)
		32:  2, // values 32,33: [32,34), first sub-bucket of [32,64)
		111: 1, // value 1023: last sub-bucket of [512,1024)
		112: 1, // value 1024: first sub-bucket of [1024,2048)
	}
	for i, want := range wantBuckets {
		if h.buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.buckets[i], want)
		}
	}
	if h.Count() != 14 {
		t.Fatalf("count = %d, want 14", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1024 {
		t.Fatalf("min/max = %d/%d, want 0/1024", h.Min(), h.Max())
	}
	// Bucket bounds invert the index mapping across the full range.
	for _, v := range []int64{0, 5, 16, 100, 1 << 20, 1<<40 + 12345} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d outside its bucket bounds [%g,%g)", v, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(100)
	if got := h.Quantile(0.5); got != 100 {
		t.Fatalf("single-sample p50 = %g, want 100 (clamped to min==max)", got)
	}
	h2 := &Histogram{}
	for i := 0; i < 1000; i++ {
		h2.Observe(int64(i))
	}
	p50 := h2.Quantile(0.50)
	if p50 < 470 || p50 > 530 {
		t.Fatalf("p50 of U[0,1000) = %g, want within ~6%% of 500", p50)
	}
	p99 := h2.Quantile(0.99)
	if p99 < 930 || p99 > 999 {
		t.Fatalf("p99 of U[0,1000) = %g, want within ~6%% of 990", p99)
	}
	if got := h2.Quantile(0); got != 0 {
		t.Fatalf("q=0 should be min, got %g", got)
	}
	if got := h2.Quantile(1); got != 999 {
		t.Fatalf("q=1 should be max, got %g", got)
	}
	// Quantiles are monotone in q.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h2.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%g gives %g < %g", q, v, prev)
		}
		prev = v
	}
	// Negative values clamp to zero rather than corrupting buckets.
	h3 := &Histogram{}
	h3.Observe(-5)
	if h3.Min() != 0 || h3.Quantile(0.5) != 0 {
		t.Fatal("negative observation did not clamp to 0")
	}
}

// TestPercentileNearestRank: Percentile is exact nearest rank, ceil(q·n),
// on any ordered sample type, and leaves its input unsorted.
func TestPercentileNearestRank(t *testing.T) {
	two := []float64{3.5, 1.25}
	if got := Percentile(two, 0.50); got != 1.25 {
		t.Fatalf("p50 of %v = %g, want the smaller, 1.25", two, got)
	}
	if two[0] != 3.5 {
		t.Fatalf("Percentile sorted its input: %v", two)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1
	}
	if got := Percentile(hundred, 0.99); got != 99 {
		t.Fatalf("p99 of 1..100 = %g, want 99", got)
	}
	if got := Percentile(hundred[90:], 0.99); got != 10 {
		t.Fatalf("p99 of 1..10 = %g, want the 10th, 10", got)
	}
	if got := Percentile([]float64(nil), 0.5); got != 0 {
		t.Fatalf("p50 of nothing = %g, want 0", got)
	}
}

func TestHistogramAllZeroSamples(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("all-zero histogram should summarize to zeros")
	}
}

func TestRegistrySummaryOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Inc()
	r.Counter("a_count").Add(2)
	r.DurationHistogram("lat").ObserveDuration(3 * time.Second)
	var sb strings.Builder
	r.WriteSummary(&sb)
	out := sb.String()
	if strings.Index(out, "a_count") > strings.Index(out, "b_count") {
		t.Fatalf("summary not sorted:\n%s", out)
	}
	if !strings.Contains(out, "lat\tcount=1") || !strings.Contains(out, "3s") {
		t.Fatalf("duration histogram not rendered as duration:\n%s", out)
	}
}

func TestObsClockStampsEvents(t *testing.T) {
	o := New()
	sink := NewRingSink(8)
	o.SetTracer(NewTracer(sink))
	now := 5 * time.Minute
	o.BindClock(func() time.Duration { return now })
	o.Emit(Event{Kind: KindInject, Query: "q", EP: 3})
	now = 7 * time.Minute
	o.Emit(Event{Kind: KindPredict, Query: "q", EP: 3})
	o.EmitDetail(Event{Kind: KindRouteDeliver}) // dropped: not verbose
	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (detail suppressed)", len(evs))
	}
	if evs[0].T != 5*time.Minute || evs[1].T != 7*time.Minute {
		t.Fatalf("timestamps = %v, %v", evs[0].T, evs[1].T)
	}
	o.Tracer().Verbose = true
	o.EmitDetail(Event{Kind: KindRouteDeliver})
	if got := len(sink.Events()); got != 3 {
		t.Fatalf("verbose detail not recorded, have %d events", got)
	}
}

// TestQueryTagFreeWhenOff checks that the query label is built only for
// a tracer to record: without one it is empty and costs no allocation.
func TestQueryTagFreeWhenOff(t *testing.T) {
	qid := ids.HashString("q")
	var none *Obs
	off := New()
	if none.QueryTag(qid) != "" || off.QueryTag(qid) != "" {
		t.Fatal("query tag built with no tracer attached")
	}
	if n := testing.AllocsPerRun(100, func() {
		off.EmitSpan(0, Event{Kind: KindDisseminate, Query: off.QueryTag(qid), EP: 1})
	}); n != 0 {
		t.Fatalf("untraced EmitSpan allocates %v times", n)
	}
	on := New()
	on.SetTracer(NewTracer(NewRingSink(1)))
	if got := on.QueryTag(qid); got != qid.Short() {
		t.Fatalf("traced query tag %q, want %q", got, qid.Short())
	}
}

func TestRingSinkWraps(t *testing.T) {
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		s.Record(Event{N: int64(i)})
	}
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, want := range []int64{2, 3, 4} {
		if evs[i].N != want {
			t.Fatalf("evs[%d].N = %d, want %d (oldest first)", i, evs[i].N, want)
		}
	}
}

func TestRegistryMerge(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()
	dst.Counter("msgs").Add(10)
	src.Counter("msgs").Add(5)
	src.Counter("only_src").Inc()
	dst.Gauge("g").Set(1)
	src.Gauge("g").Set(2)
	dst.Histogram("h").Observe(4)
	src.Histogram("h").Observe(1024)
	src.DurationHistogram("lat_ns").ObserveDuration(time.Second)

	dst.Merge(src)
	if got := dst.Counter("msgs").Value(); got != 15 {
		t.Fatalf("merged counter = %d, want 15", got)
	}
	if got := dst.Counter("only_src").Value(); got != 1 {
		t.Fatalf("src-only counter = %d", got)
	}
	if got := dst.Gauge("g").Value(); got != 2 {
		t.Fatalf("merged gauge = %g, want source value 2", got)
	}
	h := dst.Histogram("h")
	if h.Count() != 2 || h.Min() != 4 || h.Max() != 1024 {
		t.Fatalf("merged histogram count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if h.Mean() != (4+1024)/2.0 {
		t.Fatalf("merged mean = %g", h.Mean())
	}
	var buf strings.Builder
	dst.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "lat_ns") {
		t.Fatal("duration marking lost in merge")
	}
	// Merging an empty registry (and nil) is a no-op.
	dst.Merge(NewRegistry())
	dst.Merge(nil)
	if dst.Histogram("h").Count() != 2 {
		t.Fatal("empty merge changed state")
	}
}
