// BenchmarkClusterSharded100k is the sharded-engine scaling benchmark: an
// N=100,000-endsystem packet-level cluster driven through a short horizon
// on the region-sharded engine, once at GOMAXPROCS=1 (the serial
// execution of the sharded window schedule) and once at GOMAXPROCS=8.
// Both runs execute the identical event sequence — the engine is
// byte-deterministic across worker counts — so the events/s ratio is a
// pure parallel-speedup measurement on a host with that many CPUs, and
// engine overhead on a smaller one (`make cluster-bench-sharded`).
//
// TestShardedMillionSmoke (env-gated, `make shard-smoke`) is the memory
// ceiling check: an N=1,000,000 cluster must construct and complete a
// short horizon in-process.
package seaweed

import (
	"os"
	"runtime"
	"testing"
	"time"
)

const (
	benchSharded100kN       = 100_000
	benchSharded100kHorizon = 30 * time.Minute
	benchShardedWorkers     = 8
)

// runSharded100k builds the N=100k cluster and drives it to the bench
// horizon, returning the executed-event count and wall time.
func runSharded100k(b *testing.B, trace *AvailabilityTrace) (uint64, time.Duration) {
	b.Helper()
	c := New(WithTrace(trace), WithSeed(7), WithShards(benchShardedWorkers),
		WithFlowsPerDay(5), WithConfig(func(cfg *ClusterConfig) {
			cfg.Net.PerEndpointStats = false
			cfg.Pastry.LazyTables = true
		}))
	runtime.GC()
	start := time.Now()
	c.RunUntil(benchSharded100kHorizon)
	return c.Sched.Executed(), time.Since(start)
}

func BenchmarkClusterSharded100k(b *testing.B) {
	trace := FarsiteTrace(benchSharded100kN, time.Hour, 7)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rate [2]float64 // events/s at GOMAXPROCS 1 and benchShardedWorkers
	for i := 0; i < b.N; i++ {
		var events [2]uint64
		for j, gmp := range []int{1, benchShardedWorkers} {
			runtime.GOMAXPROCS(gmp)
			var wall time.Duration
			events[j], wall = runSharded100k(b, trace)
			rate[j] = float64(events[j]) / wall.Seconds()
			b.Logf("gomaxprocs=%d: %d events in %v (%.0f events/s)", gmp, events[j], wall, rate[j])
		}
		if events[0] != events[1] {
			b.Fatalf("event counts diverge across gomaxprocs: %d vs %d — determinism broken",
				events[0], events[1])
		}
	}
	if runtime.NumCPU() < benchShardedWorkers {
		b.Logf("host has %d CPUs for %d workers: scaling-x measures engine overhead, not parallel speedup",
			runtime.NumCPU(), benchShardedWorkers)
	}
	b.ReportMetric(rate[1], "events/sec")
	b.ReportMetric(rate[1]/rate[0], "scaling-x")
}

// TestShardedMillionSmoke is the N=10^6 memory-and-liveness smoke: the
// full cluster — trace, overlay, datasets, availability churn — must
// construct and run a short horizon on the sharded engine without
// exhausting memory. Env-gated because construction alone takes minutes;
// `make shard-smoke` (and the CI shard-smoke job) runs it.
func TestShardedMillionSmoke(t *testing.T) {
	if os.Getenv("SEAWEED_SHARD_SMOKE") == "" {
		t.Skip("set SEAWEED_SHARD_SMOKE=1 to run the N=1M smoke")
	}
	const n = 1_000_000
	trace := FarsiteTrace(n, time.Hour, 7)
	c := New(WithTrace(trace), WithSeed(7), WithShards(benchShardedWorkers),
		WithFlowsPerDay(2), WithConfig(func(cfg *ClusterConfig) {
			cfg.Net.PerEndpointStats = false
			cfg.Pastry.LazyTables = true
		}))
	if live := c.NumLive(); live < n/10 {
		t.Fatalf("only %d of %d endsystems live after bootstrap", live, n)
	}
	start := time.Now()
	c.RunUntil(5 * time.Minute)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("N=1M: %d events in %v, %d live, heap %.1f GiB",
		c.Sched.Executed(), time.Since(start), c.NumLive(), float64(ms.HeapAlloc)/(1<<30))
	if c.Sched.Executed() == 0 {
		t.Fatal("no events executed")
	}
}
