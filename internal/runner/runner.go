package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Result is one record of a sweep's -out files (see JSONLSink, CSVSink).
type Result struct {
	Index int
	Name  string
	Seed  int64
	Value any
}

// Config parameterizes a pool execution.
type Config struct {
	// Workers is the number of concurrent runs (0 = GOMAXPROCS).
	Workers int
	// Stats, when non-nil, accumulates aggregate timing across executions
	// (a sweep's own render prints it).
	Stats *Stats
	// ProfileDir, when non-empty, captures a CPU profile of every run to
	// <ProfileDir>/run-<index>.pprof. The Go runtime supports a single
	// active CPU profile per process, so setting it forces the execution
	// serial (Workers is ignored). Profile I/O failures are reported to
	// stderr, never as run failures: the profiling harness must not change
	// a sweep's results.
	ProfileDir string
}

// Stats accumulates pool timing across executions (the phases of a sweep,
// or studies nested inside concurrent runs).
type Stats struct {
	mu      sync.Mutex
	Runs    int
	Wall    time.Duration // sum of execution wall-clock times
	Busy    time.Duration // sum of per-run wall-clock times
	Workers int           // max resolved worker count seen
}

// Speedup returns busy/wall across everything accumulated: the wall-clock
// speedup over an ideal serial execution of the same runs.
func (st *Stats) Speedup() float64 {
	if st == nil || st.Wall <= 0 {
		return 0
	}
	return st.Busy.Seconds() / st.Wall.Seconds()
}

func (st *Stats) add(runs, workers int, wall, busy time.Duration) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.Runs += runs
	st.Wall += wall
	st.Busy += busy
	st.Workers = max(st.Workers, workers)
}

// runPanic is a recovered run panic, re-raised on the caller.
type runPanic struct {
	index int
	value any
	stack []byte
}

// Run calls run(i) for every i in [0, n) across the configured worker pool
// and returns the values indexed by i. Workers take indices from a shared
// counter and write each value into its own slot, so the output is the
// same at any worker count provided the runs share no mutable state. If
// any run panics, Run lets the others finish and then panics on the
// caller's goroutine with the lowest panicking index, its panic value and
// its stack.
func Run[T any](cfg Config, n int, run func(i int) T) []T {
	workers := cfg.Workers
	if cfg.ProfileDir != "" {
		if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "runner: profile dir: %v\n", err)
		}
		workers = 1 // one CPU profile at a time
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))

	out := make([]T, n)
	panics := make([]*runPanic, n)
	var next, busy atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				panics[i] = runOne(cfg.ProfileDir, i, &out[i], run)
				busy.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	cfg.Stats.add(n, workers, time.Since(start), time.Duration(busy.Load()))
	for _, p := range panics {
		if p != nil {
			panic(fmt.Errorf("runner: run %d panicked: %v\n%s", p.index, p.value, p.stack))
		}
	}
	return out
}

// runOne executes run(i) into *dst, optionally under a CPU profile, and
// returns the recovered panic, if any.
func runOne[T any](profileDir string, i int, dst *T, run func(i int) T) (p *runPanic) {
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
	defer func() {
		if r := recover(); r != nil {
			p = &runPanic{index: i, value: r, stack: debug.Stack()}
		}
	}()
	*dst = run(i)
	return nil
}

// ForEach calls fn(i) for every i in [0, n) through Run's pool (workers 0
// = GOMAXPROCS). It is the in-place data-parallel form: fn writes its
// results by index, which keeps them deterministic.
func ForEach(n, workers int, fn func(i int)) {
	Run(Config{Workers: workers}, n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}
