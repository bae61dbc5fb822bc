package ids

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// sourceSeeds are the seeds the differential oracle runs: the
// normalisation's edges (0 and the multiples of 2³¹−1 seed as 89482311,
// negatives wrap) and the per-endsystem seed expressions of anemone and
// avail for a few endsystems.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 1 << 40,
		math.MinInt64, math.MaxInt64, 42, -987654321}
	for _, i := range []int64{0, 1, 7, 999, 51662} {
		for _, salt := range []int64{0xa4e04e, 0x57e4, 0x5ea3eed, 0x6e47e11a} {
			seeds = append(seeds, 7^i*0x9e3779b97f4a7c^salt)
		}
	}
	return seeds
}

// sameDraws fails t unless a and b yield the same n raw draws and then the
// same values from every rand.Rand method production code calls.
func sameDraws(t *testing.T, seed int64, a, b *rand.Rand, n int) {
	t.Helper()
	for k := range n {
		if k%2 == 0 {
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, k, x, y)
			}
		} else if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand %d", seed, k, x, y)
		}
	}
	for k := range 200 {
		if a.Int63n(1e12+int64(k)) != b.Int63n(1e12+int64(k)) || a.Intn(k+1) != b.Intn(k+1) ||
			a.Int31n(int32(k)+7) != b.Int31n(int32(k)+7) || a.Float64() != b.Float64() ||
			a.ExpFloat64() != b.ExpFloat64() || a.NormFloat64() != b.NormFloat64() {
			t.Fatalf("seed %d: rand.Rand methods diverge at round %d", seed, k)
		}
	}
	if !slices.Equal(a.Perm(100), b.Perm(100)) {
		t.Fatalf("seed %d: Perm diverges", seed)
	}
	xs, ys := make([]int, 300), make([]int, 300)
	for i := range xs {
		xs[i], ys[i] = i, i
	}
	a.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	b.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	if !slices.Equal(xs, ys) {
		t.Fatalf("seed %d: Shuffle diverges", seed)
	}
}

// TestSourceMatchesMathRand: a Source is math/rand's generator draw for
// draw, from a fresh seed and after re-seeding a used one in place.
func TestSourceMatchesMathRand(t *testing.T) {
	used := NewSource(3)
	for _, seed := range sourceSeeds() {
		sameDraws(t, seed, rand.New(NewSource(seed)), rand.New(rand.NewSource(seed)), 10000)
		used.Seed(seed)
		sameDraws(t, seed, rand.New(used), rand.New(rand.NewSource(seed)), 10000)
	}
}

// FuzzSource compares the first 700 draws, past one 607-word lag cycle,
// for any seed.
func FuzzSource(f *testing.F) {
	for _, seed := range sourceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		a, b := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		for k := range 700 {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d: draw %d = %d, math/rand %d", seed, k, x, y)
			}
		}
	})
}

var benchSink int64

// BenchmarkNewSource is seeding a generator and taking one draw, the cost
// of a per-endsystem stream before its draws, for math/rand and Source
// side by side, plus the cost of a draw once seeded.
func BenchmarkNewSource(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		for i := range b.N {
			benchSink += rand.New(rand.NewSource(int64(i))).Int63()
		}
	})
	b.Run("ids", func(b *testing.B) {
		for i := range b.N {
			benchSink += rand.New(NewSource(int64(i))).Int63()
		}
	})
	b.Run("reseed", func(b *testing.B) {
		src := NewSource(0)
		rng := rand.New(src)
		for i := range b.N {
			src.Seed(int64(i))
			benchSink += rng.Int63()
		}
	})
	for _, side := range []struct {
		name string
		src  rand.Source
	}{{"mathrand-Int63n", rand.NewSource(1)}, {"ids-Int63n", NewSource(1)}} {
		b.Run(side.name, func(b *testing.B) {
			rng := rand.New(side.src)
			for range b.N {
				benchSink += rng.Int63n(1e9 + 7)
			}
		})
	}
}
