package runner

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
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

// sweep runs n runs whose values depend only on the index, each drawing
// from its own seeded RNG as a real simulation run would, and returns them
// as sink records.
func sweep(cfg Config, n int) []Result {
	return Run(cfg, n, func(i int) Result {
		seed := SplitSeed(7, int64(i))
		rng := rand.New(rand.NewSource(seed))
		sum := 0.0
		for j := 0; j < 1000; j++ {
			sum += rng.Float64()
		}
		return Result{Index: i, Name: fmt.Sprintf("run-%d", i), Seed: seed,
			Value: map[string]any{"index": i, "sum": sum}}
	})
}

// runToJSONL executes the sweep at the given worker count and returns
// the JSONL serialization of the results.
func runToJSONL(t *testing.T, workers int, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sinks := []Sink{NewJSONLSink(&buf)}
	if err := EmitAll(sinks, sweep(Config{Workers: workers}, n)); err != nil {
		t.Fatal(err)
	}
	if err := CloseAll(sinks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	// The headline guarantee: any worker count, byte-identical serialized
	// results.
	serial := runToJSONL(t, 1, 37)
	for _, workers := range []int{2, 8, 16} {
		got := runToJSONL(t, workers, 37)
		if !bytes.Equal(serial, got) {
			t.Fatalf("workers=%d output differs from serial:\n%s\nvs\n%s",
				workers, got[:120], serial[:120])
		}
	}
}

func TestRunRepanicsOnCaller(t *testing.T) {
	var mu sync.Mutex
	ran := map[int]bool{}
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("Run did not re-panic with an error: %v", r)
		}
		msg := err.Error()
		// The lowest panicking index wins, whatever finished first.
		if !strings.Contains(msg, "run 4 panicked: boom 4") || !strings.Contains(msg, "runner_test.go") {
			t.Fatalf("re-panic lacks index, value or stack:\n%s", msg)
		}
		if len(ran) != 7 {
			t.Fatalf("the pool did not drain: %d of the 7 runs that do not panic finished", len(ran))
		}
	}()
	Run(Config{Workers: 4}, 9, func(i int) int {
		if i == 4 || i == 7 {
			panic(fmt.Sprintf("boom %d", i))
		}
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		return i
	})
	t.Fatal("Run returned after a run panicked")
}

func TestMapAndForEach(t *testing.T) {
	st := &Stats{}
	got := Run(Config{Workers: 4, Stats: st}, 20, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Run[%d] = %d", i, v)
		}
	}
	if st.Runs != 20 || st.Workers != 4 || st.Busy <= 0 || st.Wall <= 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
	if out := Run(Config{}, 0, func(int) int { return 1 }); len(out) != 0 {
		t.Fatalf("empty pool returned %d values", len(out))
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
	if err := EmitAll(sinks, sweep(Config{Workers: 4}, 6)); err != nil {
		t.Fatal(err)
	}
	if err := CloseAll(sinks); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 7 { // header + 6 rows
		t.Fatalf("csv lines = %d:\n%s", len(lines), csvBuf.String())
	}
}
