// Network-management session: the paper's motivating Anemone scenario. A
// network operator notices an anomaly and runs several retrospective
// one-shot queries over data stored in situ on every endsystem, using the
// completeness predictor to decide how long each answer is worth waiting
// for.
//
//	go run ./examples/netmgmt
package main

import (
	"fmt"
	"time"

	seaweed "repro"
)

func main() {
	const endsystems = 300
	horizon := 4 * 24 * time.Hour
	trace := seaweed.FarsiteTrace(endsystems, horizon, 7)
	cfg := seaweed.DefaultClusterConfig(trace, 7)
	cfg.Workload.MeanFlowsPerDay = 150
	cluster := seaweed.NewCluster(cfg)

	// Tuesday, 08:30: the operator arrives to an alert about last night's
	// traffic and starts digging.
	cluster.RunUntil(24*time.Hour + 8*time.Hour + 30*time.Minute)

	queries := []struct {
		question string
		sql      string
		kind     seaweed.AggKind
	}{
		{"How much web traffic did we serve?",
			"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80", seaweed.Sum},
		{"How many elephant flows (>20 kB)?",
			"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000", seaweed.Count},
		{"What's the average SMB transfer size?",
			"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'", seaweed.Avg},
		{"How many packets hit privileged ports?",
			"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024", seaweed.Sum},
	}

	for _, spec := range queries {
		fmt.Printf("\n── %s\n   %s\n", spec.question, spec.sql)
		q := seaweed.MustParseQuery(spec.sql)
		injector, ok := cluster.FirstLive()
		if !ok {
			fmt.Println("   network down!")
			return
		}
		h := cluster.InjectQuery(injector, q)
		// Track the incremental answer as it streams in.
		var last seaweed.ResultUpdate
		seen := false
		h.OnUpdate(func(u seaweed.ResultUpdate) { last, seen = u, true })
		cluster.RunUntil(cluster.Sched.Now() + 30*time.Second)
		if h.Predictor == nil {
			fmt.Println("   (no predictor)")
			continue
		}

		// The operator's delay/completeness decision: take the answer now
		// if ≥95% is already here, otherwise wait for 95%, but never more
		// than 4 hours.
		now := 100 * h.Predictor.CompletenessBy(0)
		wait, reachable := h.Predictor.DelayFor(0.95)
		fmt.Printf("   predictor: %.1f%% immediate; 95%% expected in %v\n",
			now, wait.Round(time.Minute))
		budget := wait
		if !reachable || budget > 4*time.Hour {
			budget = 4 * time.Hour
		}
		cluster.RunUntil(cluster.Sched.Now() + budget)

		if seen {
			fmt.Printf("   answer after %v: %s = %.1f  (from %d endsystems, %d rows)\n",
				budget.Round(time.Minute), spec.kind, last.Partial.Final(spec.kind),
				last.Contributors, last.Partial.Count)
		}
	}

	fmt.Println("\nsession done: every answer came with an explicit delay/completeness tradeoff.")
}
