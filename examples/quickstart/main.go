// Quickstart: stand up a simulated Seaweed deployment, inject one query,
// and watch the completeness predictor and the incremental results arrive.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	seaweed "repro"
)

func main() {
	// A 200-endsystem enterprise network over three days. Availability
	// follows the Farsite-like trace: ~81% of machines up at any time,
	// with office machines powering off overnight.
	const endsystems = 200
	horizon := 3 * 24 * time.Hour
	trace := seaweed.FarsiteTrace(endsystems, horizon, 42)

	cfg := seaweed.DefaultClusterConfig(trace, 42)
	cfg.Workload.MeanFlowsPerDay = 100 // light synthetic Anemone workload
	cluster := seaweed.NewCluster(cfg)

	// Let a day of protocol activity pass: metadata replication, leafset
	// maintenance, availability-model learning.
	cluster.RunUntil(24 * time.Hour)

	// Ask how much web traffic the network saw. It is midnight: many
	// machines are off, so part of the answer will arrive only as they
	// power back on.
	query := seaweed.MustParseQuery("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	injector, ok := cluster.FirstLive()
	if !ok {
		fmt.Println("no live endsystem to inject from")
		return
	}
	handle := cluster.InjectQuery(injector, query)

	// Keep the newest incremental result as the stream delivers it: the
	// callback fires at the virtual instant each update arrives.
	var last seaweed.ResultUpdate
	fresh := false
	handle.OnUpdate(func(u seaweed.ResultUpdate) { last, fresh = u, true })

	// The completeness predictor arrives within seconds.
	cluster.RunUntil(cluster.Sched.Now() + time.Minute)
	pred := handle.Predictor
	if pred == nil {
		fmt.Println("no predictor (injector offline?)")
		return
	}
	fmt.Printf("predictor after %v:\n", handle.PredictorAt-handle.Injected)
	fmt.Printf("  expected rows total: %.0f\n", pred.ExpectedTotal())
	fmt.Printf("  immediately available: %.1f%%\n", 100*pred.CompletenessBy(0))
	for _, d := range []time.Duration{time.Hour, 8 * time.Hour, 24 * time.Hour} {
		fmt.Printf("  expected by +%v: %.1f%%\n", d, 100*pred.CompletenessBy(d))
	}
	if d, ok := pred.DelayFor(0.99); ok {
		fmt.Printf("  99%% completeness expected within %v\n", d)
	}

	// Watch the incremental result converge over the morning, reporting
	// whenever new updates arrived since the last look.
	total := float64(cluster.TrueRelevantRows(query))
	for _, wait := range []time.Duration{10 * time.Minute, 4 * time.Hour, 12 * time.Hour} {
		cluster.RunUntil(handle.Injected + wait)
		if fresh {
			fmt.Printf("after %8v: SUM(Bytes) = %.0f from %d endsystems (completeness %.1f%%)\n",
				wait, last.Partial.Final(seaweed.Sum), last.Contributors,
				100*float64(last.Partial.Count)/total)
			fresh = false
		}
	}

	// The answer is good enough: retire the query. The cancel propagates
	// down the aggregation tree and reclaims its state everywhere; the
	// handle's Completed and Cancelled flags (and any WhenDone hooks)
	// report the end of the lifecycle.
	cluster.CancelQuery(handle, injector)
	fmt.Printf("query retired after %v (cancelled=%v)\n",
		cluster.Sched.Now()-handle.Injected, handle.Cancelled)
}
