// Churn study: run the same Seaweed deployment over an enterprise
// availability trace (Farsite-like, ~81% available, gentle churn) and a
// peer-to-peer one (Gnutella-like, ~30% available, 23x the departure
// rate), and compare the overhead and the completeness outlook — the
// contrast behind the paper's Figure 10.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"time"

	seaweed "repro"
)

func main() {
	const endsystems = 250
	horizon := 60 * time.Hour

	run("enterprise (Farsite-like)", seaweed.FarsiteTrace(endsystems, horizon, 3))
	run("peer-to-peer (Gnutella-like)", seaweed.GnutellaTrace(endsystems, horizon, 3))
}

func run(label string, trace *seaweed.AvailabilityTrace) {
	horizon := trace.Horizon
	fmt.Printf("\n═══ %s ═══\n", label)
	st := trace.ComputeStats()
	fmt.Printf("mean availability %.2f, departures per online endsystem-second %.2g\n",
		st.MeanAvailability, st.DeparturesPerOnlineSecond)

	cfg := seaweed.DefaultClusterConfig(trace, 3)
	cfg.Workload.MeanFlowsPerDay = 100
	cluster := seaweed.NewCluster(cfg)

	injectAt := 30 * time.Hour
	cluster.RunUntil(injectAt)
	q := seaweed.MustParseQuery("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
	injector, ok := cluster.FirstLive()
	if !ok {
		fmt.Println("nothing alive")
		return
	}
	h := cluster.InjectQuery(injector, q)
	cluster.RunUntil(injectAt + time.Minute)

	if h.Predictor != nil {
		fmt.Printf("completeness outlook: %.0f%% now, %.0f%% in 1h, %.0f%% in 12h\n",
			100*h.Predictor.CompletenessBy(0),
			100*h.Predictor.CompletenessBy(time.Hour),
			100*h.Predictor.CompletenessBy(12*time.Hour))
	}

	// Run to the end of the trace and read the newest update in the log.
	cluster.RunUntil(horizon)
	if n := len(h.Results); n > 0 {
		last := h.Results[n-1]
		total := cluster.TrueRelevantRows(q)
		fmt.Printf("result after %v: %d of %d rows (%.1f%%) from %d endsystems\n",
			(horizon - injectAt).Round(time.Hour),
			last.Partial.Count, total,
			100*float64(last.Partial.Count)/float64(total), last.Contributors)
	}

	// Overhead: mean transmit bandwidth per online endsystem over the run.
	samples := cluster.Net.Stats().PerEndpointHourSamples(false, 0, horizon)
	var sum float64
	n := 0
	for _, v := range samples {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n > 0 {
		fmt.Printf("mean overhead: %.0f B/s per online endsystem\n", sum/float64(n))
	}
}
