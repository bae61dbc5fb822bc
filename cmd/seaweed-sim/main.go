// Command seaweed-sim regenerates the paper's simulation results: the
// example completeness predictor (Figure 2), the completeness-prediction
// experiments (Figures 5–8), the packet-level overhead experiments
// (Figures 9 and 10), and the ablation studies of DESIGN.md.
//
// Usage:
//
//	seaweed-sim -fig 5                          # one figure
//	seaweed-sim -fig 9d -full                   # paper-scale (slow)
//	seaweed-sim -ablation arity                 # one ablation study
//	seaweed-sim -all                            # every simulation figure at quick scale
//	seaweed-sim -sweep -parallel 8              # Figures 5–8 as one parallel sweep
//	seaweed-sim -sweep -out results             # also write results.jsonl records
//	seaweed-sim -fig 5 -trace t.jsonl -metrics  # with query trace + metrics summary
//	seaweed-sim -fig 9a -metrics-out m.json     # metrics registry as JSON
//	seaweed-sim -workload heavy -timeseries ts.jsonl  # virtual-time system samples
//	seaweed-sim -chaos mixed                    # fault-injection run + invariant report
//	seaweed-sim -chaos mixed -smoke -out rep    # CI variant, report JSON to rep.json
//	seaweed-sim -chaos mixed -ablate backoff    # ablation: expect invariant failures
//	seaweed-sim -workload heavy                 # query-service sweep: full + both ablations
//	seaweed-sim -workload heavy -out report     # also write report.json
//	seaweed-sim -workload spike -qps 400        # spike preset at 400 interactive queries/hour
//	seaweed-sim -workload heavy -ablate admission  # serve one ablated variant only
//	seaweed-sim -rtt-scope 50ms -smoke          # RTT-scoped query demo + oracle audit
//
// -chaos runs a scripted fault scenario (partition, burstloss, flap,
// mixed, straggler) against an always-on invariant checker and prints the
// chaos report; the exit status is 1 when any invariant failed. The
// report is byte-deterministic for a given scenario and seed. With
// -ablate reassert the run disables the upward re-assertion ladder at
// interior aggregation vertices (the straggler scenario's ablation).
//
// -workload serves an open-loop query workload (light, heavy, spike)
// through the delay-aware query service, once with the full scheduler and
// once per ablation, and checks the teeth: each ablation must strictly
// degrade interactive p99 latency. Exit status is 1 when a tooth fails.
// With -ablate admission|priority it instead serves just that ablated
// variant and prints its report.
//
// -parallel N fans independent simulation runs across N workers of the
// deterministic engine (0 = all cores); results are byte-identical at any
// worker count. Each run is one single-threaded event wheel. -smoke
// shrinks every dimension for CI smoke tests.
//
// -rtt-scope T runs the scoped-query demo on a cluster with Vivaldi
// network coordinates on: the Figure 9 query restricted to the endsystems
// within predicted RTT T of the injector, its converged result audited
// against a brute-force oracle over the frozen coordinate snapshot; exit
// status 1 on any mismatch.
//
// The trace file is JSONL, one query-lifecycle event per line, with
// causal span links; decompose per-query delay with
// `seaweed-trace -breakdown t.jsonl`.
// -metrics prints the system-wide metrics registry (always collected)
// after the run; -metrics-out writes it as JSON. -timeseries streams
// a virtual-time snapshot every minute of the running system (live
// endsystems, backlog, events/s, queue depth, query counts) to JSONL;
// like -trace it forces multi-run invocations serial.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qserve"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 2, 5, 6, 7, 8, 9a, 9b, 9c, 9d, 10")
	ablation := flag.String("ablation", "", "ablation to run: arity, predictor, histogram, push, replicas")
	chaos := flag.String("chaos", "", "chaos scenario to run: partition, burstloss, flap, mixed, straggler")
	workload := flag.String("workload", "", "query-service workload to serve: light, heavy, spike")
	qps := flag.Float64("qps", 0, "with -workload: interactive arrival rate in queries/hour (0 = the preset's; other classes scale proportionally)")
	ablate := flag.String("ablate", "", "with -chaos: disable a hardening mechanism (backoff, repair, reassert); with -workload: serve one ablated variant (admission, priority)")
	full := flag.Bool("full", false, "approach the paper's deployment sizes (much slower)")
	all := flag.Bool("all", false, "run every simulation figure")
	sweep := flag.Bool("sweep", false, "run the Figures 5–8 completeness sweep through the parallel engine")
	parallel := flag.Int("parallel", 0, "engine workers for independent runs (0 = all cores, 1 = serial)")
	smoke := flag.Bool("smoke", false, "shrink every dimension for a fast smoke run")
	rttScope := flag.Duration("rtt-scope", 0, "run the RTT-scoped query demo with network coordinates on: inject the Figure 9 query restricted to the endsystems within this predicted RTT of the injector and audit the result against the brute-force oracle")
	outPrefix := flag.String("out", "", "write sweep records to <out>.jsonl, or the -chaos / -workload report to <out>.json")
	seed := flag.Int64("seed", 1, "random seed")
	tracePath := flag.String("trace", "", "write query-lifecycle trace events to this JSONL file")
	verbose := flag.Bool("vtrace", false, "with -trace, also record per-hop routing and maintenance detail events")
	metrics := flag.Bool("metrics", false, "print the metrics registry summary after the run")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry as JSON to this file after the run")
	timeseries := flag.String("timeseries", "", "stream periodic virtual-time registry samples to this JSONL file (forces serial runs)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *rttScope < 0 {
		fmt.Fprintln(os.Stderr, "seaweed-sim: -rtt-scope must be a positive duration")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seaweed-sim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "seaweed-sim: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	s := experiments.QuickScale()
	if *full {
		s = experiments.FullScale()
	}
	if *smoke {
		s.CompletenessN = 400
		s.PacketN = 80
		s.PacketHorizon = 36 * time.Hour
		s.FlowsPerDay = 40
	}
	s.Seed = *seed
	s.Workers = *parallel
	w := os.Stdout

	// One shared observability layer across every run this invocation
	// performs: metrics accumulate (merged deterministically when runs
	// execute in parallel), and the tracer (if any) sees all query
	// lifecycles — attaching a tracer forces runs serial.
	o := obs.New()
	s.Obs = o
	var traceSink *obs.JSONLSink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seaweed-sim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		traceSink = obs.NewJSONLSink(f)
		tr := obs.NewTracer(traceSink)
		tr.Verbose = *verbose
		o.SetTracer(tr)
	}
	var sampleWriter *obs.SampleWriter
	if *timeseries != "" {
		f, err := os.Create(*timeseries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seaweed-sim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sampleWriter = obs.NewSampleWriter(f)
		o.SetSampler(sampleWriter)
	}
	finish := func() {
		if traceSink != nil {
			if err := traceSink.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: flushing trace: %v\n", err)
				os.Exit(1)
			}
		}
		if sampleWriter != nil {
			if err := sampleWriter.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: flushing time series: %v\n", err)
				os.Exit(1)
			}
		}
		if *metrics {
			o.Registry().WriteSummary(w)
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: %v\n", err)
				os.Exit(1)
			}
			if err := o.Registry().WriteJSON(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: writing %s: %v\n", *metricsOut, err)
				os.Exit(1)
			}
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: writing heap profile: %v\n", err)
				os.Exit(1)
			}
		}
	}

	runSweep := func() {
		r := experiments.CompletenessSweep(s)
		if *outPrefix != "" {
			f, err := os.Create(*outPrefix + ".jsonl")
			if err == nil {
				if err = r.WriteJSONL(f); err == nil {
					err = f.Close()
				} else {
					f.Close()
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: writing sweep records: %v\n", err)
				os.Exit(1)
			}
		}
		r.Render(w)
	}

	runFig := func(name string) {
		figStart := time.Now()
		switch name {
		case "2":
			experiments.Fig2(s).Render(w)
		case "5", "6", "7", "8":
			qi := int(name[0] - '5')
			experiments.RunCompletenessFigure(s, qi).Render(w)
		case "9a":
			experiments.Fig9a(s).Render(w)
		case "9b":
			experiments.Fig9b(s).Render(w)
		case "9c":
			experiments.Fig9c(s, []int64{11, 22, 33, 44, 55}).Render(w)
		case "9d":
			sizes := []int{250, 500, 1000, 2000}
			if *smoke {
				sizes = []int{50, 100}
			} else if *full {
				sizes = []int{2000, 4000, 8000, 16000}
			}
			experiments.WriteFig9d(w, experiments.Fig9d(s, sizes))
		case "10":
			experiments.Fig10(s).Render(w)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintf(w, "# (figure %s computed in %v)\n\n", name, time.Since(figStart).Round(time.Millisecond))
	}

	runChaos := func(name string) bool {
		scen, ok := fault.Builtin(name, *smoke)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown chaos scenario %q (have %v)\n", name, fault.BuiltinNames())
			os.Exit(2)
		}
		cfg := core.DefaultChaosConfig(scen, *seed, *smoke)
		switch *ablate {
		case "":
		case "backoff":
			cfg.Cluster.Node.Dissem.DisableBackoff = true
		case "repair":
			cfg.Cluster.Node.Agg.DisableRepair = true
		case "reassert":
			cfg.Cluster.Node.Agg.Reassert = false
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q (have: backoff, repair, reassert)\n", *ablate)
			os.Exit(2)
		}
		if traceSink != nil {
			cfg.TraceSink = traceSink
		}
		rep := core.RunChaos(cfg)
		rep.WriteText(w)
		if *outPrefix != "" {
			j, err := rep.JSON()
			if err == nil {
				err = os.WriteFile(*outPrefix+".json", append(j, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: writing chaos report: %v\n", err)
				os.Exit(1)
			}
		}
		return rep.OK()
	}

	runWorkload := func(name string) bool {
		scale := 1.0
		if *qps > 0 {
			base, ok := qserve.Named(name, 1)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q (have: light, heavy, spike)\n", name)
				os.Exit(2)
			}
			for _, l := range base.Loads {
				if l.Class == qserve.Interactive {
					scale = *qps / l.PerHour
				}
			}
		}
		var (
			wl qserve.Workload
			ok bool
		)
		if *smoke {
			wl, ok = experiments.SmokeWorkload(name, scale)
		} else {
			wl, ok = qserve.Named(name, scale)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have: light, heavy, spike)\n", name)
			os.Exit(2)
		}
		n := s.CompletenessN
		if *smoke {
			n = 200
		}
		switch *ablate {
		case "admission", "priority":
			cfg := experiments.WorkloadConfig(n, s.Seed, wl, *smoke)
			cfg.DisableAdmission = *ablate == "admission"
			cfg.DisablePriority = *ablate == "priority"
			cfg.Cluster.Obs = o
			qserve.Run(cfg).Render(w)
			return true
		case "":
		default:
			fmt.Fprintf(os.Stderr, "unknown workload ablation %q (have: admission, priority)\n", *ablate)
			os.Exit(2)
		}
		res := experiments.WorkloadSweep(s, n, wl, *smoke)
		res.Render(w)
		if *outPrefix != "" {
			if err := res.WriteJSON(*outPrefix + ".json"); err != nil {
				fmt.Fprintf(os.Stderr, "seaweed-sim: writing workload result: %v\n", err)
				os.Exit(1)
			}
		}
		return res.OK()
	}

	switch {
	case *chaos != "":
		ok := runChaos(*chaos)
		finish()
		if !ok {
			os.Exit(1)
		}
		return
	case *workload != "":
		ok := runWorkload(*workload)
		finish()
		if !ok {
			os.Exit(1)
		}
		return
	case *rttScope > 0:
		res := experiments.RTTScopeDemo(s, *rttScope)
		res.Render(w)
		finish()
		if !res.OK() {
			os.Exit(1)
		}
		return
	case *sweep:
		runSweep()
	case *ablation != "":
		switch *ablation {
		case "arity":
			experiments.AblationDissemArity(s, []int{2, 4, 16}).Render(w)
		case "predictor":
			experiments.AblationPredictorMode(s).Render(w)
		case "histogram":
			experiments.AblationHistogram(s).Render(w)
		case "push":
			experiments.AblationPushPeriod(s, []time.Duration{
				30 * time.Second, 5 * time.Minute, 17*time.Minute + 30*time.Second, time.Hour,
			}).Render(w)
		case "replicas":
			experiments.AblationVertexReplicas(s, []int{0, 1, 3, 5}).Render(w)
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q\n", *ablation)
			os.Exit(2)
		}
	case *all:
		for _, name := range []string{"2", "5", "6", "7", "8", "9a", "9b", "9c", "9d", "10"} {
			runFig(name)
		}
	case *fig != "":
		runFig(*fig)
	default:
		flag.Usage()
		os.Exit(2)
	}
	finish()
}
