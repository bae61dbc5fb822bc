// BenchmarkClusterSteadyState is the event-engine throughput benchmark:
// a mid-size packet-level cluster (N=2000 endsystems, 6 hours of virtual
// time, a handful of live queries) driven to completion, reporting
// events/sec, ns/event and allocs/event. These are the numbers every
// engine-scaling PR is judged against; the current and pre-change
// (binary-heap, closure-based) measurements are persisted side by side in
// BENCH_cluster.json by `make cluster-bench`.
package seaweed

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

const (
	benchClusterN       = 2000
	benchClusterHorizon = 6 * time.Hour
)

// clusterBenchBaseline is the pre-change engine (binary-heap event queue,
// closure-per-message delivery, closure-chain Every) measured by this
// same benchmark at the commit before the timer-wheel rewrite, on the CI
// reference container. It is the denominator of the speedup acceptance
// gate and is recorded in BENCH_cluster.json next to each fresh run.
var clusterBenchBaseline = clusterBenchMetrics{
	Events:         1030463,
	EventsPerSec:   468818,
	NsPerEvent:     2133,
	AllocsPerEvent: 4.787,
}

type clusterBenchMetrics struct {
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

type clusterBenchSummary struct {
	Label      string              `json:"label"`
	N          int                 `json:"endsystems"`
	HorizonNS  int64               `json:"horizon_ns"`
	Current    clusterBenchMetrics `json:"current"`
	Baseline   clusterBenchMetrics `json:"baseline_pre_wheel"`
	SpeedupX   float64             `json:"speedup_vs_baseline_x"`
	AllocDropX float64             `json:"alloc_reduction_vs_baseline_x"`
	NumCPU     int                 `json:"num_cpu"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
}

func BenchmarkClusterSteadyState(b *testing.B) {
	trace := FarsiteTrace(benchClusterN, benchClusterHorizon, 7)
	q := MustParseQuery("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")

	var events uint64
	var elapsed time.Duration
	var allocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(WithTrace(trace), WithSeed(7), WithFlowsPerDay(50))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()

		start := time.Now()
		// Steady state with live queries: one injection per virtual hour.
		for h := time.Hour; h < benchClusterHorizon; h += time.Hour {
			c.RunUntil(h)
			if ep, ok := FirstLive(c); ok {
				c.InjectQuery(ep, q)
			}
		}
		c.RunUntil(benchClusterHorizon)
		elapsed += time.Since(start)

		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		events += c.Sched.Executed()
		b.StartTimer()
	}
	b.StopTimer()

	cur := clusterBenchMetrics{Events: events / uint64(b.N)}
	if elapsed > 0 && events > 0 {
		cur.EventsPerSec = float64(events) / elapsed.Seconds()
		cur.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(events)
		cur.AllocsPerEvent = float64(allocs) / float64(events)
	}
	b.ReportMetric(cur.EventsPerSec, "events/sec")
	b.ReportMetric(cur.NsPerEvent, "ns/event")
	b.ReportMetric(cur.AllocsPerEvent, "allocs/event")

	if err := writeClusterBench(cur); err != nil {
		b.Logf("BENCH_cluster.json not written: %v", err)
	}
}

// writeClusterBench persists the measurement (plus the pre-change
// baseline and the derived speedups) to BENCH_cluster.json.
func writeClusterBench(cur clusterBenchMetrics) error {
	sum := clusterBenchSummary{
		Label:      "cluster-steady-state",
		N:          benchClusterN,
		HorizonNS:  int64(benchClusterHorizon),
		Current:    cur,
		Baseline:   clusterBenchBaseline,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if sum.Baseline.EventsPerSec > 0 {
		sum.SpeedupX = cur.EventsPerSec / sum.Baseline.EventsPerSec
	}
	if cur.AllocsPerEvent > 0 {
		sum.AllocDropX = sum.Baseline.AllocsPerEvent / cur.AllocsPerEvent
	}
	return writeBenchEntry("cluster_steady_state", sum)
}

// writeBenchEntry read-modify-writes one named entry of BENCH_cluster.json,
// which holds one JSON object per benchmark (the serial N=2000 steady-state
// run and the sharded N=100k scaling run) so `make cluster-bench` and
// `make cluster-bench-sharded` can refresh their own numbers independently.
func writeBenchEntry(key string, entry any) error {
	entries := map[string]json.RawMessage{}
	if data, err := os.ReadFile("BENCH_cluster.json"); err == nil {
		if json.Unmarshal(data, &entries) != nil || entries["label"] != nil {
			// Pre-multi-entry format: a single steady-state summary object.
			entries = map[string]json.RawMessage{}
			var legacy clusterBenchSummary
			if json.Unmarshal(data, &legacy) == nil && legacy.Label != "" {
				if raw, err := json.Marshal(legacy); err == nil {
					entries["cluster_steady_state"] = raw
				}
			}
		}
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	entries[key] = raw
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_cluster.json", append(data, '\n'), 0o644)
}
