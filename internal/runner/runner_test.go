package runner

import (
	"fmt"
	"math/rand"
	"reflect"
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

// sweepRun is one run's output: its seed and a value drawn from it.
type sweepRun struct {
	Seed int64
	Sum  float64
}

// sweep runs n runs whose values depend only on the index, each drawing
// from its own seeded RNG as a real simulation run would.
func sweep(workers, n int) []sweepRun {
	return Run(Config{Workers: workers}, n, func(i int) sweepRun {
		seed := SplitSeed(7, int64(i))
		rng := rand.New(rand.NewSource(seed))
		sum := 0.0
		for j := 0; j < 1000; j++ {
			sum += rng.Float64()
		}
		return sweepRun{Seed: seed, Sum: sum}
	})
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	// The headline guarantee: any worker count, identical results in index
	// order.
	serial := sweep(1, 37)
	for _, workers := range []int{2, 8, 16} {
		if got := sweep(workers, 37); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d output differs from serial:\n%v\nvs\n%v",
				workers, got[:3], serial[:3])
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
