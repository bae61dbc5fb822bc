// Command seaweed-trace generates and inspects the synthetic availability
// traces (Figure 1 and the calibration numbers the models take from the
// Farsite and Gnutella studies), and decomposes the per-query delay in
// trace files written by seaweed-sim -trace.
//
// Usage:
//
//	seaweed-trace -fig 1                    # hourly availability series
//	seaweed-trace -kind gnutella -stats     # calibration statistics only
//	seaweed-trace -breakdown t.jsonl        # causal delay decomposition + aggregate
//	seaweed-trace -breakdown t.jsonl -id a1b2c3d4  # one query's decomposition
//	seaweed-trace -critical-path t.jsonl -id a1b2c3d4  # its critical path
//	seaweed-trace -breakdown t.jsonl -check # verify phase sums == totals (CI)
//
// -breakdown reconstructs each query's causal span tree (events linked by
// span/parent ids) and attributes every virtual nanosecond of its
// end-to-end latency to a phase: queue wait, routing, retry backoff,
// availability wait, execution, aggregation. The per-phase durations sum
// to the query's latency exactly; -check makes that invariant a CI gate.
// A query that needed dissemination retries or lost subranges to give-ups
// also reports their counts and the namespace fraction lost.
// -critical-path prints the chain of events behind the decomposition.
// An -id that matches no query in the trace is an error (exit status 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/avail"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/causal"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1)")
	kind := flag.String("kind", "farsite", "trace kind: farsite or gnutella")
	n := flag.Int("n", 5000, "number of endsystems")
	hours := flag.Int("hours", int(4*avail.Week/time.Hour), "trace horizon in hours")
	seed := flag.Int64("seed", 1, "random seed")
	statsOnly := flag.Bool("stats", false, "print only the calibration statistics")
	breakdown := flag.String("breakdown", "", "print causal delay decompositions (and the aggregate) from this JSONL trace file")
	critPath := flag.String("critical-path", "", "print causal critical paths from this JSONL trace file")
	queryID := flag.String("id", "", "with -breakdown/-critical-path: only this query id (error if absent)")
	check := flag.Bool("check", false, "with -breakdown: verify every decomposition sums to its query's latency; exit 1 on mismatch")
	flag.Parse()

	if *breakdown != "" || *critPath != "" {
		analyzeTrace(*breakdown, *critPath, *queryID, *check)
		return
	}

	horizon := time.Duration(*hours) * time.Hour
	var trace *avail.Trace
	switch *kind {
	case "farsite":
		trace = avail.GenerateFarsite(avail.DefaultFarsiteConfig(*n, horizon, *seed))
	case "gnutella":
		trace = avail.GenerateGnutella(avail.DefaultGnutellaConfig(*n, horizon, *seed))
	default:
		fmt.Fprintf(os.Stderr, "unknown trace kind %q\n", *kind)
		os.Exit(2)
	}

	st := trace.ComputeStats()
	fmt.Printf("# %s trace: %d endsystems over %v\n", *kind, *n, horizon)
	fmt.Printf("# mean availability        %.4f\n", st.MeanAvailability)
	fmt.Printf("# departures/online-second %.4g\n", st.DeparturesPerOnlineSecond)
	fmt.Printf("# churn per endsystem-sec  %.4g\n", st.ChurnPerEndsystemSecond)
	fmt.Printf("# mean session             %v\n", st.MeanSession.Round(time.Minute))
	if *statsOnly {
		return
	}

	if *fig == 1 {
		experiments.Fig1(trace).Render(os.Stdout)
		return
	}
	for h, f := range trace.HourlySeries() {
		fmt.Printf("%d\t%.4f\n", h, f)
	}
}

// readTrace reads a JSONL trace file or exits.
func readTrace(path string) []obs.Event {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seaweed-trace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seaweed-trace: reading %s: %v\n", path, err)
		os.Exit(1)
	}
	return events
}

// analyzeTrace runs the causal delay decomposition over a trace file for
// -breakdown and/or -critical-path.
func analyzeTrace(breakdownPath, critPath, queryID string, check bool) {
	path := breakdownPath
	if path == "" {
		path = critPath
	}
	if breakdownPath != "" && critPath != "" && breakdownPath != critPath {
		fmt.Fprintln(os.Stderr, "seaweed-trace: -breakdown and -critical-path must name the same trace file")
		os.Exit(2)
	}
	bds := causal.Analyze(readTrace(path))
	if queryID != "" {
		var match []*causal.Breakdown
		for _, b := range bds {
			if b.Query == queryID {
				match = append(match, b)
			}
		}
		if len(match) == 0 {
			fmt.Fprintf(os.Stderr, "seaweed-trace: no query %q in %s (%d queries traced)\n",
				queryID, path, len(bds))
			os.Exit(1)
		}
		bds = match
	}
	failed := 0
	for _, b := range bds {
		if check {
			if err := b.Check(); err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-trace: %v\n", err)
				failed++
			}
		}
		if breakdownPath != "" {
			causal.WriteBreakdown(os.Stdout, b)
		}
		if critPath != "" {
			causal.WritePath(os.Stdout, b)
		}
	}
	if breakdownPath != "" && queryID == "" {
		causal.WriteAggregate(os.Stdout, causal.Summarize(bds))
	}
	if check {
		fmt.Printf("# check: %d/%d decompositions sum exactly\n", len(bds)-failed, len(bds))
		if failed > 0 {
			os.Exit(1)
		}
	}
}
