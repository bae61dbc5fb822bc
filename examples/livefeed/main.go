// Live feed: run Seaweed over a deployment whose data grows while the
// simulation runs (the paper's own simulator could not support data
// updates) and keep a continuous query standing over it — the §3.4
// extension. A metadata push carries the summary only when it changed
// since the replica last got it; an unchanged one costs a 32-byte beacon.
//
//	go run ./examples/livefeed
package main

import (
	"fmt"
	"time"

	seaweed "repro"
)

func main() {
	const endsystems = 150
	horizon := 2 * 24 * time.Hour
	trace := seaweed.FarsiteTrace(endsystems, horizon, 9)

	cfg := seaweed.DefaultClusterConfig(trace, 9)
	cfg.Workload.MeanFlowsPerDay = 200
	cfg.Feed = seaweed.FeedConfig{Enabled: true, Period: 20 * time.Minute}
	cluster := seaweed.NewCluster(cfg)

	// Let data accrue for half a day, then stand up a continuous query
	// counting elephant flows.
	cluster.RunUntil(12 * time.Hour)
	q := seaweed.MustParseQuery("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
	injector, ok := cluster.FirstLive()
	if !ok {
		fmt.Println("network down")
		return
	}
	handle := cluster.InjectContinuousQuery(injector, q)

	// Track the standing result as it streams in, instead of polling:
	// the callback fires at the virtual instant each update arrives.
	var last seaweed.ResultUpdate
	seen := false
	handle.OnUpdate(func(u seaweed.ResultUpdate) { last, seen = u, true })

	fmt.Println("standing query: COUNT(*) of flows > 20 kB, re-evaluated as data grows")
	for _, at := range []time.Duration{13 * time.Hour, 18 * time.Hour, 24 * time.Hour, 36 * time.Hour, 47 * time.Hour} {
		cluster.RunUntil(at)
		truth := cluster.TrueRelevantRows(q)
		if seen {
			fmt.Printf("t=%5v  standing result: %6d   (true total %6d, %d endsystems reporting)\n",
				at, last.Partial.Count, truth, last.Contributors)
		}
	}

	// The query expires at its TTL (48 h by default); the operator could
	// also cancel it explicitly:
	cluster.CancelQuery(handle, injector)
	fmt.Println("query canceled; tree state will be reclaimed")
}
