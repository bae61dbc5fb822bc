// Package obs is the observability layer of the Seaweed reproduction: a
// zero-dependency metrics registry plus a query-lifecycle tracer, both
// driven by the simulation's virtual clock rather than wall time.
//
// The registry holds named counters, gauges and log-bucketed histograms.
// It is cheap enough to stay on by default: instrumentation sites fetch
// their handles once at construction time, so the hot path is a single
// pointer-indirect increment (counters) or one bits.Len plus an increment
// (histograms). The relational executor reports its scan work here too —
// rows_scanned, rows_matched, blocks_pruned, plan_cache_hits and
// plan_cache_misses (see relq.StandardExecStats) — batched as one atomic
// add per counter per query execution. All handle methods are nil-safe: a
// nil *Obs (a layer built without one, as in unit tests) costs one
// predicted branch per site and nothing else.
//
// The tracer records typed span events describing where each query spends
// its virtual time (inject → disseminate → predict → partial-result →
// complete, plus per-hop routing, retry and maintenance events) to an
// in-memory ring or a JSONL sink. Tracing is opt-in; see the Tracer and
// Event types in trace.go and the summarizer in summary.go.
//
// Metric handles (counters, gauges, histogram buckets) update with atomic
// operations, so a registry stays safe to record into from more than one
// goroutine. All recorded quantities are integers (counts, byte sizes,
// nanosecond durations), so every total is exact and independent of the
// order its updates arrive in. The tracer is single-threaded, like the
// simulation (one simnet.Wheel) whose events it records.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
)

// Counter is a monotonically increasing event count. The nil counter is a
// valid no-op.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-written value. The nil gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits representation
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucketing is log-linear (HDR-style): each power of two is
// split into histSubBuckets linear sub-buckets, bounding the relative
// quantile error at 1/histSubBuckets (~6%) instead of the factor-of-two
// error of pure log2 buckets, while keeping Observe O(1) and memory
// fixed.
//
// Values below histSubBuckets (bit length <= histSubShift+1) get one
// exact bucket each: bucket v for value v. Larger values with bit length
// L live in bucket histSubBuckets + (L-histSubShift-1)*histSubBuckets +
// sub, where sub is the histSubShift bits following the leading one —
// i.e. the bucket covers [2^(L-1) + sub*2^(L-1-histSubShift),
// 2^(L-1) + (sub+1)*2^(L-1-histSubShift)).
const (
	histSubShift   = 4                 // log2 of sub-buckets per power of two
	histSubBuckets = 1 << histSubShift // 16
	// histBuckets covers bit lengths histSubShift+1 .. 64 (60 of them)
	// with histSubBuckets buckets each, plus the histSubBuckets exact low
	// buckets.
	histBuckets = histSubBuckets + (64-histSubShift)*histSubBuckets
)

// histIndex maps a non-negative value to its bucket index.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	l := bits.Len64(u) // >= histSubShift+1
	sub := int(u>>(l-histSubShift-1)) & (histSubBuckets - 1)
	return histSubBuckets + (l-histSubShift-1)*histSubBuckets + sub
}

// histBounds returns the [lo, hi) value range of a bucket as floats
// (float math sidesteps overflow at bit length 64).
func histBounds(i int) (lo, hi float64) {
	if i < histSubBuckets {
		return float64(i), float64(i + 1)
	}
	l := (i-histSubBuckets)/histSubBuckets + histSubShift + 1
	sub := (i - histSubBuckets) % histSubBuckets
	width := math.Ldexp(1, l-histSubShift-1)
	lo = math.Ldexp(1, l-1) + float64(sub)*width
	return lo, lo + width
}

// Histogram is a log-linear-bucketed histogram of non-negative int64
// values. Durations are recorded as nanoseconds; plain counts (hops,
// depths, retries) record the count itself. Log-linear bucketing keeps
// recording O(1) and memory fixed while spanning the nine orders of
// magnitude between a LAN hop (~100µs) and a multi-day availability
// wait, with quantiles accurate to ~1/16. The nil histogram is a valid
// no-op.
type Histogram struct {
	count uint64
	// sum is an integer: every recorded quantity is an integral count or
	// nanosecond duration, and integer accumulation keeps the sum exact
	// and order-independent across concurrent recorders.
	sum uint64
	// minEnc holds min+1 (0 = no observations yet), so the zero-value
	// histogram needs no sentinel initialization.
	minEnc  uint64
	max     int64
	buckets [histBuckets]uint64
}

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	enc := uint64(v) + 1
	for {
		old := atomic.LoadUint64(&h.minEnc)
		if old != 0 && old <= enc {
			break
		}
		if atomic.CompareAndSwapUint64(&h.minEnc, old, enc) {
			break
		}
	}
	for {
		old := atomic.LoadInt64(&h.max)
		if v <= old {
			break
		}
		if atomic.CompareAndSwapInt64(&h.max, old, v) {
			break
		}
	}
	atomic.AddUint64(&h.count, 1)
	atomic.AddUint64(&h.sum, uint64(v))
	atomic.AddUint64(&h.buckets[histIndex(v)], 1)
}

// ObserveDuration records a virtual-time duration as nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.count)
}

// Mean returns the mean recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := atomic.LoadUint64(&h.count)
	if n == 0 {
		return 0
	}
	return float64(atomic.LoadUint64(&h.sum)) / float64(n)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	enc := atomic.LoadUint64(&h.minEnc)
	if enc == 0 {
		return 0
	}
	return int64(enc - 1)
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.max)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the rank-q sample and interpolating linearly within the
// bucket's value range, clamped to the observed min and max.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.Count()
	if count == 0 {
		return 0
	}
	min, max := float64(h.Min()), float64(h.Max())
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(count-1)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(atomic.LoadUint64(&h.buckets[i]))
		if n == 0 {
			continue
		}
		if cum+n > rank {
			lo, hi := histBounds(i)
			frac := (rank - cum) / n
			v := lo + frac*(hi-lo)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		cum += n
	}
	return max
}

// Registry is a named collection of metrics. Handles are get-or-create
// and stable for the registry's lifetime, so instrumentation sites fetch
// them once and hold the pointer. The nil registry hands out nil (no-op)
// handles.
type Registry struct {
	// mu guards the maps. Instrumentation sites fetch handles once at
	// construction time, so get-or-create is a cold path; the lone
	// mid-run creator is lazy per-query histogram naming, which must be
	// safe when more than one goroutine records into the registry.
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// durations records which histogram names hold nanosecond durations,
	// so summaries format them as times rather than raw integers.
	durations map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		durations:  make(map[string]bool),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named value histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// DurationHistogram returns the named histogram, marking it as holding
// nanosecond durations for summary formatting.
func (r *Registry) DurationHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.durations[name] = true
	r.mu.Unlock()
	return r.Histogram(name)
}

// merge folds another histogram into this one. Merging happens after the
// source's run has completed (the runner collects finished runs), so plain
// reads of src with atomic updates of h suffice.
func (h *Histogram) merge(src *Histogram) {
	if src == nil || src.Count() == 0 {
		return
	}
	encMin := uint64(src.Min()) + 1
	for {
		old := atomic.LoadUint64(&h.minEnc)
		if old != 0 && old <= encMin {
			break
		}
		if atomic.CompareAndSwapUint64(&h.minEnc, old, encMin) {
			break
		}
	}
	for {
		old := atomic.LoadInt64(&h.max)
		if src.Max() <= old {
			break
		}
		if atomic.CompareAndSwapInt64(&h.max, old, src.Max()) {
			break
		}
	}
	atomic.AddUint64(&h.count, src.Count())
	atomic.AddUint64(&h.sum, atomic.LoadUint64(&src.sum))
	for i := range h.buckets {
		if n := atomic.LoadUint64(&src.buckets[i]); n != 0 {
			atomic.AddUint64(&h.buckets[i], n)
		}
	}
}

// Merge folds another registry into this one: counters add, histograms
// combine bucketwise, gauges take the source's value. The registry is
// single-threaded, so parallel simulation runs each use their own
// registry and the runner merges them in run order once the runs have
// completed — making the merged totals deterministic at any worker
// count (histogram bucket counts and counter sums are order-independent;
// gauges resolve to the last run's value by the fixed merge order).
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for name, c := range src.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range src.gauges {
		r.Gauge(name).Set(g.Value())
	}
	for name, h := range src.histograms {
		r.Histogram(name).merge(h)
	}
	for name, isDur := range src.durations {
		if isDur {
			r.durations[name] = true
		}
	}
}

// WriteSummary prints every metric in name order: counters and gauges one
// per line, histograms with count/mean/P50/P90/P99/max.
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "# metrics: disabled")
		return
	}
	fmt.Fprintln(w, "# metrics summary")
	for _, name := range sortedKeys(r.counters) {
		fmt.Fprintf(w, "counter\t%s\t%d\n", name, r.counters[name].Value())
	}
	for _, name := range sortedKeys(r.gauges) {
		fmt.Fprintf(w, "gauge\t%s\t%g\n", name, r.gauges[name].Value())
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		if r.durations[name] {
			fmt.Fprintf(w, "histogram\t%s\tcount=%d mean=%v p50=%v p90=%v p99=%v max=%v\n",
				name, h.Count(),
				fmtNS(h.Mean()), fmtNS(h.Quantile(0.50)), fmtNS(h.Quantile(0.90)),
				fmtNS(h.Quantile(0.99)), fmtNS(float64(h.Max())))
			continue
		}
		fmt.Fprintf(w, "histogram\t%s\tcount=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%d\n",
			name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.90),
			h.Quantile(0.99), h.Max())
	}
}

// histogramJSON is the machine-readable rendering of one histogram.
type histogramJSON struct {
	Count    uint64  `json:"count"`
	Mean     float64 `json:"mean"`
	Min      int64   `json:"min"`
	Max      int64   `json:"max"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
	Duration bool    `json:"duration,omitempty"`
}

// registryJSON is the machine-readable rendering of a registry.
type registryJSON struct {
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]histogramJSON `json:"histograms"`
}

// WriteJSON writes the registry as one indented JSON object — the
// machine-readable counterpart of WriteSummary. Map keys are sorted by
// the encoder, so the output is deterministic for a given registry
// state.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := registryJSON{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]histogramJSON),
	}
	if r != nil {
		for name, c := range r.counters {
			out.Counters[name] = c.Value()
		}
		for name, g := range r.gauges {
			out.Gauges[name] = g.Value()
		}
		for name, h := range r.histograms {
			out.Histograms[name] = histogramJSON{
				Count:    h.Count(),
				Mean:     h.Mean(),
				Min:      h.Min(),
				Max:      h.Max(),
				P50:      h.Quantile(0.50),
				P90:      h.Quantile(0.90),
				P99:      h.Quantile(0.99),
				Duration: r.durations[name],
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// fmtNS renders a nanosecond quantity as a rounded duration.
func fmtNS(ns float64) time.Duration {
	d := time.Duration(ns)
	switch {
	case d >= time.Hour:
		return d.Round(time.Minute)
	case d >= time.Second:
		return d.Round(time.Millisecond)
	default:
		return d.Round(time.Microsecond)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Obs bundles a registry with an optional tracer and the virtual clock
// that timestamps trace events. A nil *Obs disables the whole layer; all
// methods are nil-safe.
type Obs struct {
	reg   *Registry
	tr    *Tracer
	clock func() time.Duration
	// spans is the span-id allocator for causal trace events. Ids are
	// only handed out while a tracer is attached, so the spans-off fast
	// path never touches it.
	spans uint64
	// sampler, when set, asks the simulation harness to stream periodic
	// registry snapshots (see SetSampler and timeseries.go).
	sampler       *SampleWriter
	samplerPeriod time.Duration
}

// New returns an enabled observability layer: metrics on, tracing off
// until SetTracer. The virtual clock is bound later by the simulation
// harness (BindClock).
func New() *Obs {
	return &Obs{reg: NewRegistry()}
}

// Registry returns the metrics registry (nil for the nil layer).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter is shorthand for Registry().Counter.
func (o *Obs) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge.
func (o *Obs) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram is shorthand for Registry().Histogram.
func (o *Obs) Histogram(name string) *Histogram { return o.Registry().Histogram(name) }

// DurationHistogram is shorthand for Registry().DurationHistogram.
func (o *Obs) DurationHistogram(name string) *Histogram {
	return o.Registry().DurationHistogram(name)
}

// SetTracer attaches (or, with nil, detaches) a tracer.
func (o *Obs) SetTracer(t *Tracer) {
	if o != nil {
		o.tr = t
	}
}

// Tracer returns the attached tracer, or nil.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Tracing reports whether span events are being recorded.
func (o *Obs) Tracing() bool { return o != nil && o.tr != nil }

// Detail reports whether detail (verbose) trace events would be
// recorded. Hot paths check it before building an EmitDetail argument:
// the Event literal itself (query-ID formatting in particular) allocates,
// and evaluating it on every routed message dominates untraced runs.
func (o *Obs) Detail() bool { return o != nil && o.tr != nil && o.tr.Verbose }

// QueryTag returns the label trace events carry for a query — the id's
// first 8 hex digits — or "" when no tracer is attached. Formatting the id
// allocates, so instrumentation sites build their Event with this rather
// than with qid.Short(): with tracing off the Event is never recorded and
// the label costs a nil check.
func (o *Obs) QueryTag(qid ids.ID) string {
	if o == nil || o.tr == nil {
		return ""
	}
	return qid.Short()
}

// BindClock installs the virtual clock used to timestamp trace events.
// Each simulation run binds its own scheduler; rebinding is allowed (a
// shared CLI-level Obs observes several sequential runs, each restarting
// virtual time at zero).
func (o *Obs) BindClock(clock func() time.Duration) {
	if o != nil {
		o.clock = clock
	}
}

// now returns the current virtual time, or zero with no clock bound.
func (o *Obs) now() time.Duration {
	if o == nil || o.clock == nil {
		return 0
	}
	return o.clock()
}

// Emit records a lifecycle event, stamping the virtual time. It is a
// no-op without an attached tracer.
func (o *Obs) Emit(ev Event) {
	if o == nil || o.tr == nil {
		return
	}
	ev.T = o.now()
	o.tr.Record(ev)
}

// EmitAt records a lifecycle event with a caller-supplied virtual
// timestamp, for simulators that track virtual time without a scheduler
// (the availability-level completeness simulator).
func (o *Obs) EmitAt(t time.Duration, ev Event) {
	if o == nil || o.tr == nil {
		return
	}
	ev.T = t
	o.tr.Record(ev)
}

// EmitDetail records a high-frequency event (per-hop routing, periodic
// maintenance). These are dropped unless the tracer was created verbose,
// keeping default trace files to query-lifecycle granularity.
func (o *Obs) EmitDetail(ev Event) {
	if o == nil || o.tr == nil || !o.tr.Verbose {
		return
	}
	ev.T = o.now()
	o.tr.Record(ev)
}

// EmitSpan records ev with a freshly allocated span id and the given
// parent link, returning the span id for use as the parent of causally
// subsequent events. Without an attached tracer it records nothing and
// returns 0 — the "no span" value — so instrumentation sites can thread
// the returned cause unconditionally at zero cost when spans are off.
func (o *Obs) EmitSpan(parent uint64, ev Event) uint64 {
	if o == nil || o.tr == nil {
		return 0
	}
	o.spans++
	ev.Span = o.spans
	ev.Parent = parent
	ev.T = o.now()
	o.tr.Record(ev)
	return ev.Span
}

// EmitSpanDetail is EmitSpan for high-frequency events: it allocates and
// records only on a verbose tracer, returning parent unchanged otherwise
// so the causal chain stays connected around the dropped event.
func (o *Obs) EmitSpanDetail(parent uint64, ev Event) uint64 {
	if o == nil || o.tr == nil || !o.tr.Verbose {
		return parent
	}
	o.spans++
	ev.Span = o.spans
	ev.Parent = parent
	ev.T = o.now()
	o.tr.Record(ev)
	return ev.Span
}

// SetSampler asks the simulation harness to stream a registry snapshot
// to w every period of virtual time (see Sample in timeseries.go). The
// harness — core.NewCluster — arms the periodic timer; obs only carries
// the request, keeping it free of scheduler dependencies. Pass nil to
// disable. Like an attached tracer, an attached sampler makes the Obs
// order-sensitive: the experiment runner serializes runs that share it.
func (o *Obs) SetSampler(w *SampleWriter, period time.Duration) {
	if o == nil {
		return
	}
	o.sampler = w
	o.samplerPeriod = period
}

// Sampler returns the attached sample writer and period (nil, 0 when
// sampling is off).
func (o *Obs) Sampler() (*SampleWriter, time.Duration) {
	if o == nil {
		return nil, 0
	}
	return o.sampler, o.samplerPeriod
}

// Sampling reports whether a time-series sampler is attached. Like
// Tracing, runners use it to serialize runs that share this Obs: samples
// from concurrent runs would interleave in the output stream.
func (o *Obs) Sampling() bool {
	return o != nil && o.sampler != nil && o.samplerPeriod > 0
}
