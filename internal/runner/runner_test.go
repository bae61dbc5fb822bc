package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSplitSeedIndependence(t *testing.T) {
	// Distinct (base, stream) pairs must give distinct seeds — including
	// the xor/shift collision cases the old derivations suffered from
	// (seed 0 node 1 vs seed 2 node 0 under s ^ i<<1).
	seen := make(map[int64][2]int64)
	for base := int64(0); base < 64; base++ {
		for stream := int64(0); stream < 64; stream++ {
			s := SplitSeed(base, stream)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SplitSeed collision: (%d,%d) and (%d,%d) -> %d",
					base, stream, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{base, stream}
		}
	}
	if SplitSeed(0, 1) == SplitSeed(2, 0) {
		t.Fatal("the documented xor-derivation collision survives in SplitSeed")
	}
}

// sweepSpecs builds n runs whose values depend only on (index, seed):
// each draws from its own seeded RNG, as a real simulation run would.
func sweepSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		specs[i] = Spec{
			Name: fmt.Sprintf("run-%d", i),
			Run: func(rc RunContext) (any, error) {
				rng := rand.New(rand.NewSource(rc.Seed))
				sum := 0.0
				for j := 0; j < 1000; j++ {
					sum += rng.Float64()
				}
				return map[string]any{"index": rc.Index, "sum": sum}, nil
			},
		}
	}
	return specs
}

// runToJSONL executes the sweep at the given worker count and returns
// the deterministic JSONL serialization of the results.
func runToJSONL(t *testing.T, workers int, specs []Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	rep, err := Execute(context.Background(),
		Config{Workers: workers, Seed: 7, Sinks: []Sink{sink}}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("failures at workers=%d: %v", workers, rep.FirstErr())
	}
	return buf.Bytes()
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	// The headline guarantee: same seed, any worker count, byte-identical
	// serialized results.
	specs := sweepSpecs(37)
	serial := runToJSONL(t, 1, specs)
	for _, workers := range []int{2, 8, 16} {
		got := runToJSONL(t, workers, specs)
		if !bytes.Equal(serial, got) {
			t.Fatalf("workers=%d output differs from serial:\n%s\nvs\n%s",
				workers, got[:120], serial[:120])
		}
	}
}

func TestExecutePanicIsolation(t *testing.T) {
	specs := sweepSpecs(9)
	specs[4].Run = func(RunContext) (any, error) { panic("boom") }
	o := obs.New()
	rep, err := Execute(context.Background(), Config{Workers: 4, Obs: o}, specs)
	if err != nil {
		t.Fatalf("a panicking run must not fail the sweep: %v", err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	r := rep.Results[4]
	if !r.Panicked || r.Err == nil || !strings.Contains(r.Err.Error(), "boom") {
		t.Fatalf("panic not captured: %+v", r)
	}
	for i, r := range rep.Results {
		if i != 4 && r.Err != nil {
			t.Fatalf("run %d failed collaterally: %v", i, r.Err)
		}
	}
	if got := o.Counter("runner_runs_panicked").Value(); got != 1 {
		t.Fatalf("runner_runs_panicked = %d", got)
	}
	if got := o.Counter("runner_runs_ok").Value(); got != 8 {
		t.Fatalf("runner_runs_ok = %d", got)
	}
}

func TestExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	specs := make([]Spec, 64)
	for i := range specs {
		specs[i] = Spec{Name: fmt.Sprintf("r%d", i), Run: func(rc RunContext) (any, error) {
			if started.Add(1) == 4 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return rc.Index, nil
		}}
	}
	rep, err := Execute(ctx, Config{Workers: 4, Window: 4}, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int(started.Load()) >= len(specs) {
		t.Fatal("cancellation did not stop dispatch")
	}
	if len(rep.Results) != len(specs) {
		t.Fatalf("report must cover every spec, got %d", len(rep.Results))
	}
	// Undispatched runs are marked with the context error.
	if rep.Results[len(specs)-1].Err == nil {
		t.Fatal("undispatched run not marked failed")
	}
}

func TestExecuteBoundedWindow(t *testing.T) {
	const window = 3
	var inflight, maxInflight atomic.Int32
	specs := make([]Spec, 40)
	for i := range specs {
		specs[i] = Spec{Name: "w", Run: func(rc RunContext) (any, error) {
			cur := inflight.Add(1)
			for {
				old := maxInflight.Load()
				if cur <= old || maxInflight.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			return nil, nil
		}}
	}
	if _, err := Execute(context.Background(),
		Config{Workers: 8, Window: window}, specs); err != nil {
		t.Fatal(err)
	}
	if got := maxInflight.Load(); got > window {
		t.Fatalf("max in-flight %d exceeds window %d", got, window)
	}
}

func TestExecuteSinkOrderAndProgress(t *testing.T) {
	var order []int
	var progress []int
	sink := sinkFunc(func(r Result) error { order = append(order, r.Index); return nil })
	_, err := Execute(context.Background(), Config{
		Workers: 8,
		Sinks:   []Sink{sink},
		OnProgress: func(done, total int) {
			progress = append(progress, done)
			if total != 24 {
				t.Errorf("total = %d", total)
			}
		},
	}, sweepSpecs(24))
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("sink saw index %d at position %d: emission out of order", idx, i)
		}
	}
	if len(progress) != 24 || progress[23] != 24 {
		t.Fatalf("progress callbacks: %v", progress)
	}
}

type sinkFunc func(Result) error

func (f sinkFunc) Emit(r Result) error { return f(r) }
func (f sinkFunc) Close() error        { return nil }

func TestMapAndForEach(t *testing.T) {
	got := Map(4, 20, 3, func(i int, seed int64) int {
		if seed != SplitSeed(3, int64(i)) {
			t.Errorf("run %d: wrong derived seed", i)
		}
		return i * i
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}

	var mu sync.Mutex
	seen := make(map[int]bool)
	ForEach(100, 7, func(i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
	})
	if len(seen) != 100 {
		t.Fatalf("ForEach covered %d of 100", len(seen))
	}
}

func TestBenchSinkAndCSV(t *testing.T) {
	var csvBuf bytes.Buffer
	sinks := []Sink{NewCSVSink(&csvBuf)}
	rep, err := Execute(context.Background(),
		Config{Workers: 4, Seed: 1, Sinks: sinks}, sweepSpecs(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := CloseAll(sinks); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 7 { // header + 6 rows
		t.Fatalf("csv lines = %d:\n%s", len(lines), csvBuf.String())
	}
	if rep.Speedup() <= 0 {
		t.Fatal("speedup not measured")
	}
}
