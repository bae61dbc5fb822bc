package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Spec describes one independent run of a sweep.
type Spec struct {
	// Name labels the run in sinks and failure reports.
	Name string
	// Run executes the run. It must derive all randomness from rc.Seed
	// and must not touch state shared with other runs; the returned value
	// is the run's result (it should be deterministic in rc.Seed and
	// rc.Index only). A panic inside Run is isolated and reported as a
	// failed run, not a crashed sweep.
	Run func(rc RunContext) (any, error)
}

// RunContext is what a run receives from the engine.
type RunContext struct {
	// Context carries sweep-level cancellation; long runs may check it.
	Context context.Context
	// Index is the run's position in the sweep, 0-based.
	Index int
	// Seed is the run's independently derived seed (SplitSeed of the
	// engine's base seed and Index).
	Seed int64
}

// Result is the outcome of one run.
type Result struct {
	Index int
	Name  string
	Seed  int64
	// Value is what Spec.Run returned (nil for failed runs).
	Value any
	// Err is the run's error; for a panicking run it carries the panic
	// value and stack.
	Err error
	// Panicked reports whether Err came from a recovered panic.
	Panicked bool
	// Elapsed is the run's wall-clock time. It is measurement, not
	// result: the deterministic sinks exclude it.
	Elapsed time.Duration
}

// Failed reports whether the run errored or panicked.
func (r Result) Failed() bool { return r.Err != nil }

// Config parameterizes an engine execution.
type Config struct {
	// Workers is the number of concurrent runs (0 = GOMAXPROCS).
	Workers int
	// Seed is the sweep's base seed; run i receives SplitSeed(Seed, i).
	Seed int64
	// Window bounds in-flight memory: run i may only start once run
	// i-Window has been emitted, so at most Window results are ever
	// buffered for reordering (0 = 4×Workers, min Workers).
	Window int
	// Obs receives progress counters (runner_runs_ok/failed/panicked, a
	// runner_pending_results gauge and a runner_run_wall_ns histogram).
	// All updates happen on the collecting goroutine, so a shared
	// single-threaded registry is safe here.
	Obs *obs.Obs
	// Sinks receive every result, strictly in run-index order.
	Sinks []Sink
	// Stats, when non-nil, accumulates aggregate timing across engine
	// executions (a sweep's own render prints it).
	Stats *Stats
	// OnProgress, when non-nil, is called after each emitted result with
	// (emitted, total); it runs on the collecting goroutine.
	OnProgress func(done, total int)
	// ProfileDir, when non-empty, captures a CPU profile of every run to
	// <ProfileDir>/run-<index>.pprof. The Go runtime supports a single
	// active CPU profile per process, so setting it forces the execution
	// serial (Workers is ignored). Profile I/O failures are reported to
	// stderr, never as run failures: the profiling harness must not
	// change a sweep's results.
	ProfileDir string
}

// Report is the outcome of an engine execution.
type Report struct {
	// Results holds one entry per spec, in run-index order. With early
	// cancellation, undispatched runs have a zero Value and Err set to
	// the context error.
	Results []Result
	// Workers is the resolved worker count.
	Workers int
	// Elapsed is the execution's wall-clock time.
	Elapsed time.Duration
	// Busy is the summed wall-clock time of all runs — the serial-time
	// estimate the speedup is measured against.
	Busy time.Duration
	// Failed counts runs with Err set.
	Failed int
}

// Speedup returns the wall-clock speedup over an ideal serial execution
// of the same runs (sum of per-run times divided by elapsed).
func (r *Report) Speedup() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.Busy.Seconds() / r.Elapsed.Seconds()
}

// FirstErr returns the first failed run's error, or nil.
func (r *Report) FirstErr() error {
	for i := range r.Results {
		if r.Results[i].Err != nil {
			return fmt.Errorf("run %d (%s): %w", i, r.Results[i].Name, r.Results[i].Err)
		}
	}
	return nil
}

// Stats accumulates aggregate engine timing across several executions
// (e.g. the phases of a sweep). Safe for use from sequential engine
// executions; not for concurrent engines.
type Stats struct {
	mu      sync.Mutex
	Runs    int
	Failed  int
	Wall    time.Duration // sum of engine Elapsed
	Busy    time.Duration // sum of run Elapsed
	Workers int           // max resolved worker count seen
}

// Speedup returns busy/wall across everything accumulated.
func (st *Stats) Speedup() float64 {
	if st == nil || st.Wall <= 0 {
		return 0
	}
	return st.Busy.Seconds() / st.Wall.Seconds()
}

func (st *Stats) add(rep *Report) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.Runs += len(rep.Results)
	st.Failed += rep.Failed
	st.Wall += rep.Elapsed
	st.Busy += rep.Busy
	if rep.Workers > st.Workers {
		st.Workers = rep.Workers
	}
}

// Execute runs every spec across the configured worker pool and returns
// the report. The error is the context's error if the sweep was
// canceled, or the first sink error; per-run failures are reported in
// the Report (and by Report.FirstErr), not here.
func Execute(ctx context.Context, cfg Config, specs []Spec) (*Report, error) {
	n := len(specs)
	workers := cfg.Workers
	if cfg.ProfileDir != "" {
		if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: profile dir: %w", err)
		}
		workers = 1 // one CPU profile at a time
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// The window wins over the worker count: with Window < Workers the
	// extra workers idle, keeping buffered-result memory bounded.
	window := cfg.Window
	if window <= 0 {
		window = 4 * workers
	}

	rep := &Report{Results: make([]Result, n), Workers: workers}
	start := time.Now()

	// tokens implements the bounded reorder window: the dispatcher
	// acquires one token per dispatched run, the collector releases it
	// when the run's result is emitted in order. Run i therefore cannot
	// start before run i-window has been emitted.
	tokens := make(chan struct{}, window)
	jobs := make(chan int)
	done := make(chan Result, workers)

	go func() { // dispatcher
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				done <- runOne(ctx, specs[i], i, SplitSeed(cfg.Seed, int64(i)), cfg.ProfileDir)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	// Collector: reorder into index order, emit to sinks, update obs.
	// This is the only goroutine touching cfg.Obs and cfg.Sinks.
	o := cfg.Obs
	okC := o.Counter("runner_runs_ok")
	failC := o.Counter("runner_runs_failed")
	panicC := o.Counter("runner_runs_panicked")
	pendingG := o.Gauge("runner_pending_results")
	wallH := o.Histogram("runner_run_wall_ns")
	var sinkErr error
	pending := make(map[int]Result, window)
	next, emitted := 0, 0
	for res := range done {
		pending[res.Index] = res
		pendingG.Set(float64(len(pending)))
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			rep.Results[next] = r
			rep.Busy += r.Elapsed
			wallH.Observe(int64(r.Elapsed))
			if r.Err != nil {
				rep.Failed++
				failC.Inc()
				if r.Panicked {
					panicC.Inc()
				}
			} else {
				okC.Inc()
			}
			for _, s := range cfg.Sinks {
				if err := s.Emit(r); err != nil && sinkErr == nil {
					sinkErr = fmt.Errorf("runner: sink: %w", err)
				}
			}
			next++
			emitted++
			pendingG.Set(float64(len(pending)))
			if cfg.OnProgress != nil {
				cfg.OnProgress(emitted, n)
			}
			select {
			case <-tokens:
			default: // cancellation may have left fewer tokens than results
			}
		}
	}
	rep.Elapsed = time.Since(start)

	var err error
	if ctx.Err() != nil {
		err = ctx.Err()
		for i := next; i < n; i++ {
			if rep.Results[i].Value == nil && rep.Results[i].Err == nil && rep.Results[i].Elapsed == 0 {
				rep.Results[i] = Result{Index: i, Name: specs[i].Name,
					Seed: SplitSeed(cfg.Seed, int64(i)), Err: ctx.Err()}
				rep.Failed++
			}
		}
	} else if sinkErr != nil {
		err = sinkErr
	}
	cfg.Stats.add(rep)
	return rep, err
}

// runOne executes a single run with panic isolation.
func runOne(ctx context.Context, spec Spec, i int, seed int64, profileDir string) (res Result) {
	res = Result{Index: i, Name: spec.Name, Seed: seed}
	if profileDir != "" {
		path := filepath.Join(profileDir, fmt.Sprintf("run-%03d.pprof", i))
		if f, err := os.Create(path); err != nil {
			fmt.Fprintf(os.Stderr, "runner: run %d profile: %v\n", i, err)
		} else if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "runner: run %d profile: %v\n", i, err)
			f.Close()
		} else {
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			res.Value = nil
			res.Panicked = true
			res.Err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	res.Value, res.Err = spec.Run(RunContext{Context: ctx, Index: i, Seed: seed})
	return res
}

// Map executes fn for every index in [0, n) through the engine and
// returns the values in index order, re-panicking on any run failure
// (library callers keep serial crash semantics). It is the light-weight
// path for internal fan-outs that need determinism but no sinks.
func Map[T any](workers, n int, baseSeed int64, fn func(i int, seed int64) T) []T {
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		i := i
		specs[i] = Spec{
			Name: fmt.Sprintf("map/%d", i),
			Run: func(rc RunContext) (any, error) {
				return fn(i, rc.Seed), nil
			},
		}
	}
	rep, err := Execute(context.Background(), Config{Workers: workers, Seed: baseSeed}, specs)
	if err != nil {
		panic(err)
	}
	if ferr := rep.FirstErr(); ferr != nil {
		panic(ferr)
	}
	out := make([]T, n)
	for i := range rep.Results {
		out[i] = rep.Results[i].Value.(T)
	}
	return out
}

// ForEach runs fn(i) for i in [0, n) across the given worker count
// (0 = GOMAXPROCS) in contiguous chunks, and waits for completion. It is
// the in-place data-parallel primitive (results written by index stay
// deterministic); unlike Execute it does not isolate panics — a panic in
// fn crashes the process, as a serial loop would.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
