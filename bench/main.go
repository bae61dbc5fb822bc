// Command bench is the repository's benchmark: five workloads over the
// Seaweed simulation, measured on two clocks that are never mixed in one
// number — host cost of simulating a scenario and virtual-time delay seen
// by the querying user — plus a per-layer budget and a traced run.
//
//	go run ./bench                       every workload, k repetitions interleaved, traced run, layer drivers
//	go run ./bench -selfcheck            the end-to-end set twice; fails if any metric moves past its bound
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                     one workload, result JSON on the last line (BENCHMARK.json's command)
//
// See README.md in this directory for the metric glossary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/obs/causal"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// disturbedRatio is the wall/CPU ratio past which a repetition is taken
// to have lost the processor to another tenant and is run again.
const disturbedRatio = 1.25

// maxReps bounds the repetitions of one invocation whatever -seconds
// asks for, and minReps is the fewest a median is taken over.
const (
	minReps = 3
	maxReps = 8
)

// maxReruns bounds the repetitions re-run per workload in one invocation.
const maxReruns = 2

// maxUnattributedPct is how much of a traced window's CPU time the
// profile may fail to account for, either way.
const maxUnattributedPct = 5

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload and print the result JSON as the last line")
		seed      = flag.Int64("seed", 1, "seed for what is asked of the cluster: each query's injector, the study's injection instants, the layer drivers' inputs")
		seconds   = flag.Float64("seconds", runSeconds, "host seconds of window to measure: a workload's repetition count is scaled by seconds/run_seconds (3 to 8 repetitions)")
		traceFlag = flag.Int("trace", -1, "1: traced run (per-layer metrics); 0: end-to-end only; default 1 for the full suite")
		quick     = flag.Bool("quick", false, "small sizes (what the tier-1 test runs)")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and fail if any metric differs by more than its bound")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json from the metric and workload tables, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	all := workloads(*quick)
	if *describe {
		os.Exit(printDeclaration(all))
	}
	b := &bench{seed: *seed, quick: *quick, outDir: filepath.Join("bench", "out"), host: readHostStamp()}

	switch {
	case *selfcheck:
		os.Exit(b.selfcheck(all))
	case *name == "":
		os.Exit(b.suite(all, *traceFlag != 0))
	}
	for i := range all {
		if all[i].name == *name {
			os.Exit(b.single(&all[i], *seconds, *traceFlag == 1))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	os.Exit(2)
}

type bench struct {
	seed   int64
	quick  bool
	outDir string
	host   hostStamp
	reruns int
}

// summary is one workload's aggregated repetitions.
type summary struct {
	Workload  string             `json:"workload"`
	Reps      int                `json:"repetitions"`
	Reruns    int                `json:"reruns"`
	Ops       int                `json:"ops"`
	FailedOps int                `json:"failed_ops"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// SetupS and CPUS are the values the setup_s and run_cpu_s medians
	// were taken over, so a reader can see the spread behind them.
	SetupS []float64          `json:"setup_s_repetitions"`
	CPUS   []float64          `json:"run_cpu_s_repetitions"`
	det    map[string]float64 // the deterministic metrics of repetition 0
	seed0  int64              // and the seed it ran with
}

func (s *summary) failf(format string, args ...any) {
	s.FailedOps++
	s.Failures = append(s.Failures, fmt.Sprintf(format, args...))
}

// repSeeds draws one seed per repetition from -seed. Each repetition puts
// other questions to the same world, and the per-query metrics are taken
// over all of them: the ten persistent queries of one steady2k
// repetition support no percentile, those of eight do.
func (b *bench) repSeeds(n int) []int64 {
	rng := rand.New(rand.NewSource(b.seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// measure runs one untraced repetition and, while the host looks
// disturbed and the re-run budget lasts, runs it again in its place. A
// replaced repetition is still returned, marked: its deterministic
// metrics must agree with its re-run's, its numbers are not used.
func (b *bench) measure(w *workload, seed int64, budget *int) []*repResult {
	var reps []*repResult
	for {
		r := w.run(seed, repOptions{})
		reps = append(reps, r)
		if r.Host.CPUS == 0 || r.Host.WallS/r.Host.CPUS <= disturbedRatio || *budget == 0 {
			return reps
		}
		r.replaced = true
		*budget--
		b.reruns++
		fmt.Fprintf(os.Stderr, "bench: %s: wall/CPU %.2f, repetition run again\n", w.name, r.Host.WallS/r.Host.CPUS)
	}
}

// summarize folds repetitions of one workload: medians for host costs,
// per-query metrics over the queries of all repetitions, means for the
// counts of a window.
func summarize(w *workload, reps []*repResult, reruns int) *summary {
	s := &summary{Workload: w.name, Reruns: reruns, Metrics: map[string]float64{}}
	var alloc, live []float64
	var queries querySamples
	noisy, det := map[string][]float64{}, map[string][]float64{}
	for i, r := range reps {
		s.Ops += r.Ops
		s.FailedOps += len(r.Failures)
		s.Failures = append(s.Failures, r.Failures...)
		if i > 0 && reps[i-1].replaced {
			for _, k := range sortedKeys(r.Det) {
				if got, want := r.Det[k], reps[i-1].Det[k]; got != want {
					s.failf("%s: the re-run reports %v, the repetition it replaces %v (not deterministic)", k, got, want)
				}
			}
		}
		if r.replaced {
			continue
		}
		if s.Reps == 0 {
			s.det, s.seed0 = r.Det, r.seed
		}
		s.Reps++
		s.SetupS = append(s.SetupS, r.SetupS)
		s.CPUS = append(s.CPUS, r.Host.CPUS)
		alloc = append(alloc, r.Host.AllocMB)
		live = append(live, r.Host.LiveMB)
		queries.add(r.Queries)
		for k, v := range r.Noisy {
			noisy[k] = append(noisy[k], v)
		}
		for k, v := range r.Det {
			det[k] = append(det[k], v)
		}
	}
	s.Metrics["setup_s"] = median(s.SetupS)
	s.Metrics["run_cpu_s"] = median(s.CPUS)
	s.Metrics["run_alloc_mb"] = median(alloc)
	s.Metrics["live_heap_mb"] = median(live)
	for k, v := range noisy {
		s.Metrics[k] = median(v)
	}
	for k, v := range det {
		s.Metrics[k] = mean(v)
	}
	queries.metrics(s.Metrics)
	if ev := s.Metrics["simnet.events"]; ev > 0 {
		s.Metrics["host.events_per_cpu_s"] = ev / s.Metrics["run_cpu_s"]
	}
	return s
}

// traced runs repetition 0 once more with spans, a CPU profile of the
// window and the obs tracer, and adds the per-layer shares and the
// virtual-time phase split to the summary.
func (b *bench) traced(w *workload, s *summary) {
	var (
		rec          *spanRecorder
		log          *eventLog
		r            *repResult
		shares       map[string]float64
		count        int64
		unattributed float64
	)
	// Every CPU second the window used should be in the profile, and no
	// other, so that the shares account for the whole of it. Profiling
	// signals get lost when the host takes the processor away; such a
	// repetition is run again, like a disturbed untraced one. Below a
	// hundred samples the profiler's tick is too coarse to judge by.
	for try := 0; ; try++ {
		rec, log = newSpanRecorder(), &eventLog{}
		r = w.run(s.seed0, repOptions{spans: rec, events: log, profile: true})
		var totalNS int64
		shares, count, totalNS = cpuShares(r.Samples)
		unattributed = 0
		if r.Host.CPUS > 0 {
			unattributed = 100 * math.Abs(r.Host.CPUS-float64(totalNS)/1e9) / r.Host.CPUS
		}
		if unattributed <= maxUnattributedPct || count < 100 || try == maxReruns {
			break
		}
		b.reruns++
		fmt.Fprintf(os.Stderr, "bench: %s: profile misses %.1f%% of the window's CPU time, traced repetition run again\n", w.name, unattributed)
	}
	s.FailedOps += len(r.Failures)
	s.Failures = append(s.Failures, r.Failures...)
	for _, k := range sortedKeys(s.det) {
		if r.Det[k] != s.det[k] {
			s.failf("%s: traced repetition reports %v, untraced %v (not deterministic, or tracing changed the result)", k, r.Det[k], s.det[k])
		}
	}
	if unattributed > maxUnattributedPct && count >= 100 {
		s.failf("trace.unattributed_pct %.1f: the profile does not account for the window's CPU time", unattributed)
	}

	for l, v := range shares {
		s.Metrics[l+".cpu_share"] = v
	}
	s.Metrics["trace.profile_samples"] = float64(count)
	s.Metrics["trace.unattributed_pct"] = unattributed
	if cpu := s.Metrics["run_cpu_s"]; cpu > 0 {
		s.Metrics["trace_overhead_pct"] = 100 * (r.Host.CPUS - cpu) / cpu
	}
	s.Metrics["trace.run_until_self_s"] = rec.selfTime("core.run_until").Seconds()

	bds := causal.Analyze(log.events)
	phases := map[causal.Phase]time.Duration{}
	for _, bd := range bds {
		if err := bd.Check(); err != nil {
			s.failf("%v", err)
		}
		for ph, d := range bd.Phases {
			phases[ph] += d
		}
	}
	// No query service runs here, so nothing waits in its queue; were the
	// analyzer ever to say so, the time lands in other.
	phases[causal.PhaseOther] += phases[causal.PhaseQueueWait]
	for _, ph := range causal.Phases {
		if ph == causal.PhaseQueueWait {
			continue
		}
		perQuery := 0.0
		if len(bds) > 0 {
			perQuery = ms(phases[ph]) / float64(len(bds))
		}
		s.Metrics["phase."+string(ph)+"_ms"] = perQuery
	}
	path := filepath.Join(b.outDir, "trace-"+w.name+".jsonl")
	if err := rec.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}

// startProfile begins a CPU profile of the window and returns the
// function that stops it and decodes the samples.
func startProfile() func() []stackSample {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		return func() []stackSample { return nil }
	}
	return func() []stackSample {
		pprof.StopCPUProfile()
		samples, err := parseProfile(buf.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
		return samples
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes every metric of a summary by name, with its unit.
func (s *summary) print() {
	fmt.Printf("== %s: %d repetitions, %d re-run, ops %d, failed_ops %d\n",
		s.Workload, s.Reps, s.Reruns, s.Ops, s.FailedOps)
	for _, k := range sortedKeys(s.Metrics) {
		fmt.Printf("  %-36s %14.6g %s\n", k, s.Metrics[k], unitOf(k))
	}
	fmt.Printf("  setup_s by repetition   %.4f\n  run_cpu_s by repetition %.4f\n", s.SetupS, s.CPUS)
	for _, f := range s.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// single is the BENCHMARK.json command: one workload, the result JSON on
// the last line of standard output. The repetition count is the
// workload's own, scaled by seconds over the declared run_seconds: it
// does not depend on how fast the repetitions turn out to be.
func (b *bench) single(w *workload, seconds float64, trace bool) int {
	n := int(math.Round(float64(w.reps) * seconds / runSeconds))
	if n < minReps {
		n = minReps
	}
	if n > maxReps {
		n = maxReps
	}
	budget := maxReruns
	var reps []*repResult
	for _, seed := range b.repSeeds(n) {
		reps = append(reps, b.measure(w, seed, &budget)...)
	}
	s := summarize(w, reps, maxReruns-budget)
	defs := endToEnd
	if trace {
		b.traced(w, s)
		drivers, failures := runDrivers(b.seed, b.quick, nil)
		for k, v := range drivers {
			s.Metrics[k] = v
		}
		for _, f := range failures {
			s.failf("%s", f)
		}
		defs = perLayer
	}
	s.print()
	b.printHost(b.valid(s))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: s.FailedOps == 0, Attempted: s.Ops, Failed: s.FailedOps, Metrics: map[string]value{}}
	for _, d := range defs {
		// A per-layer metric that does not apply to the workload reads 0;
		// an end-to-end metric that does not apply (predict2k has no
		// delays, churnfeed1k no t99) is left out.
		if v, ok := s.Metrics[d.Name]; ok || trace {
			out.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if s.FailedOps > 0 {
		return 1
	}
	return 0
}

// valid is the stamp on a result: false if the host was already loaded
// when the benchmark started or a workload used up its re-runs.
func (b *bench) valid(sums ...*summary) bool {
	if b.host.LoadAvg1 > float64(b.host.NumCPU) {
		return false
	}
	for _, s := range sums {
		if s.Reruns >= maxReruns {
			return false
		}
	}
	return true
}

func (b *bench) printHost(valid bool) {
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, loadavg %.2f, re-runs %d, valid: %v\n",
		b.host.CPUModel, b.host.NumCPU, b.host.GOMAXPROCS, b.host.GoVersion, b.host.Commit,
		b.host.LoadAvg1, b.reruns, valid)
}

// suiteReps is k, the repetitions of each workload in the full suite.
const suiteReps = 5

// endToEndSet runs every workload suiteReps times, interleaved A B C D E,
// A B C D E, ..., each repetition on a fresh cluster.
func (b *bench) endToEndSet(all []workload) []*summary {
	reps := make([][]*repResult, len(all))
	budgets := make([]int, len(all))
	for i := range budgets {
		budgets[i] = maxReruns
	}
	for _, seed := range b.repSeeds(suiteReps) {
		for i := range all {
			reps[i] = append(reps[i], b.measure(&all[i], seed, &budgets[i])...)
		}
	}
	sums := make([]*summary, len(all))
	for i := range all {
		sums[i] = summarize(&all[i], reps[i], maxReruns-budgets[i])
	}
	return sums
}

// suite is `go run ./bench`: the end-to-end set, then one traced
// repetition per workload and the layer drivers, printed and written to
// result.json.
func (b *bench) suite(all []workload, trace bool) int {
	sums := b.endToEndSet(all)
	var drivers map[string]float64
	var driverFailures []string
	if trace {
		for i := range all {
			b.traced(&all[i], sums[i])
		}
		rec := newSpanRecorder()
		drivers, driverFailures = runDrivers(b.seed, b.quick, rec)
		if err := rec.write(filepath.Join(b.outDir, "trace-drivers.jsonl")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
	failed, valid := len(driverFailures), b.valid(sums...)
	for _, s := range sums {
		s.print()
		failed += s.FailedOps
	}
	if drivers != nil {
		fmt.Printf("== layer drivers: failed_ops %d\n", len(driverFailures))
		for _, k := range sortedKeys(drivers) {
			fmt.Printf("  %-36s %14.6g %s\n", k, drivers[k], unitOf(k))
		}
		for _, f := range driverFailures {
			fmt.Printf("  FAILED %s\n", f)
		}
	}
	b.printHost(valid)
	result := struct {
		Host      hostStamp          `json:"host"`
		Seed      int64              `json:"seed"`
		Valid     bool               `json:"valid"`
		Reruns    int                `json:"reruns"`
		Workloads []*summary         `json:"workloads"`
		Drivers   map[string]float64 `json:"layer_drivers,omitempty"`
		Failures  []string           `json:"layer_driver_failures,omitempty"`
	}{b.host, b.seed, valid, b.reruns, sums, drivers, driverFailures}
	data, err := json.MarshalIndent(result, "", "  ")
	if err == nil {
		if err = os.MkdirAll(b.outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(b.outDir, "result.json"), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: result.json: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// selfcheck is the stability acceptance check as a command: the
// end-to-end set twice back to back, failing if any end-to-end metric on
// any workload moved by more than its bound, or any virtual-time, byte or
// count metric moved at all.
func (b *bench) selfcheck(all []workload) int {
	first := b.endToEndSet(all)
	second := b.endToEndSet(all)
	bad := 0
	for i := range all {
		bad += first[i].FailedOps + second[i].FailedOps
		for _, k := range sortedKeys(first[i].det) {
			if x, y := first[i].Metrics[k], second[i].Metrics[k]; x != y {
				fmt.Printf("%-14s %-24s %14.6g %14.6g %s  NOT DETERMINISTIC\n", all[i].name, k, x, y, unitOf(k))
				bad++
			}
		}
		for _, d := range endToEnd {
			x, ok := first[i].Metrics[d.Name]
			if !ok || x == 0 {
				continue // does not apply to this workload
			}
			y := second[i].Metrics[d.Name]
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "MOVED"
				bad++
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %s  %+.2f%% (bound %.0f%%) %s\n",
				all[i].name, d.Name, x, y, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	b.printHost(b.valid(append(first, second...)...))
	if bad > 0 {
		return 1
	}
	return 0
}

// runSeconds is BENCHMARK.json's run_seconds: about what each workload's
// reps windows add up to on the recording host.
const runSeconds = 18

// printDeclaration writes BENCHMARK.json, which must say what the tables
// in this package say; the tier-1 test compares the two.
func printDeclaration(all []workload) int {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	decl := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range all {
		if w.driven() {
			decl.Workloads = append(decl.Workloads, named{w.name, w.why})
		}
	}
	data, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
