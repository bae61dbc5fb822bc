package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// refEquiDepth is the reference build: a comparison sort of a copy, then
// the same step emission.
func refEquiDepth(values []int64, buckets int) *EquiDepth {
	return equiDepthSorted(sorted(values), buckets)
}

// sorted returns a slices.Sort-ed copy of values.
func sorted(values []int64) []int64 {
	out := slices.Clone(values)
	slices.Sort(out)
	return out
}

// TestRadixSortMatchesSlicesSort: radixSort, and sortInt64s on either
// side of its cutoff, give slices.Sort's order on columns with negative
// values, on the full MinInt64..MaxInt64 span, on all-equal input, at
// lengths from 0 to past the cutoff and on every span width from 1 to 64
// bits (one to six 11-bit passes), with and without a caller's buffer.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	// span returns n values in [lo, lo + 2^width) for width 1..64.
	span := func(n int, lo int64, width int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(uint64(lo) + rng.Uint64()>>(64-width))
		}
		return out
	}
	few, equal := make([]int64, 2000), make([]int64, 1000)
	for i := range few {
		few[i] = []int64{80, 443, -1, 1 << 50}[rng.Intn(4)]
	}
	for i := range equal {
		equal[i] = -7
	}
	cases := map[string][]int64{
		"negative":   span(5000, -1<<40, 41),
		"full_span":  append(span(3000, math.MinInt64, 64), math.MinInt64, math.MaxInt64, 0, -1),
		"all_equal":  equal,
		"few_values": few,
	}
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 2*radixCutoff + 3} {
		cases["len_"+strconv.Itoa(n)] = span(n, -1000, 20)
	}
	// Every span width from 1 to 64 bits, the top one set, so each pass
	// count from one to six meets both a full and a one-bit top digit.
	for width := 1; width <= 64; width++ {
		vals := span(600, -3, width)
		vals[0], vals[1] = -3, int64(uint64(1)<<(width-1)-3)
		cases["width_"+strconv.Itoa(width)] = vals
	}
	for name, vals := range cases {
		want := sorted(vals)
		for _, extra := range []int{0, 9} {
			radix := slices.Clone(vals)
			radixSort(radix, make([]int64, len(vals)+extra))
			if !slices.Equal(radix, want) {
				t.Fatalf("%s (scratch +%d): radix order differs from slices.Sort", name, extra)
			}
		}
		// sortInt64s grows a short buffer for the radix sort and only then.
		for _, scratch := range [][]int64{nil, make([]int64, len(vals)/2), make([]int64, len(vals))} {
			before, both := len(scratch), slices.Clone(vals)
			sortInt64s(both, &scratch)
			if !slices.Equal(both, want) {
				t.Fatalf("%s (scratch %d): order differs from slices.Sort", name, before)
			}
			wantLen := before
			if len(vals) >= radixCutoff {
				wantLen = max(before, len(vals))
			}
			if len(scratch) != wantLen {
				t.Fatalf("%s: scratch %d -> %d after sorting %d values, want %d", name, before, len(scratch), len(vals), wantLen)
			}
		}
		if !reflect.DeepEqual(BuildEquiDepth(slices.Clone(vals), 64), refEquiDepth(vals, 64)) {
			t.Fatalf("%s: histogram differs from the slices.Sort build", name)
		}
	}
}

// A caller's buffer is the whole of the sort's memory: with one, sorting
// allocates nothing.
func TestRadixSortUsesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := make([]int64, 30000)
	for i := range orig {
		orig[i] = rng.Int63n(3 * 86400)
	}
	work, scratch := make([]int64, len(orig)), make([]int64, len(orig))
	if a := testing.AllocsPerRun(5, func() {
		copy(work, orig)
		sortInt64s(work, &scratch)
	}); a != 0 {
		t.Fatalf("sorting with a scratch buffer allocated %.0f times", a)
	}
}

// TestEquiDepthStepBound pins BuildEquiDepth's documented step count: with
// t = max(1, ⌊n/buckets⌋) it is at most ⌊(n−2)/t⌋ + 2, exactly that for
// distinct values, and so above the bucket count.
func TestEquiDepthStepBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const buckets = 64
	for _, c := range []struct{ n, want int }{{130, 66}, {191, 96}, {1000, 68}, {30000, 66}} {
		tgt := max(1, c.n/buckets)
		if bound := (c.n-2)/tgt + 2; bound != c.want {
			t.Fatalf("n=%d: bound %d, want %d", c.n, bound, c.want)
		}
		distinct := make([]int64, c.n)
		for i, p := range rng.Perm(c.n) {
			distinct[i] = int64(p)*37 - 500
		}
		if got := len(BuildEquiDepth(distinct, buckets).Bounds); got != c.want {
			t.Errorf("n=%d distinct: %d steps, want %d", c.n, got, c.want)
		}
		repeated := make([]int64, c.n)
		for i := range repeated {
			repeated[i] = rng.Int63n(int64(c.n/3 + 1))
		}
		if got := len(BuildEquiDepth(repeated, buckets).Bounds); got > c.want {
			t.Errorf("n=%d repeated: %d steps, above the bound %d", c.n, got, c.want)
		}
	}
}

// BenchmarkSortInt64s times radixSort against slices.Sort around
// radixCutoff, on a two-pass span (18 bits, like ts) and a three-pass one
// (29 bits, like Bytes): the lengths where the two cross set the cutoff.
//
//	go test -run '^$' -bench SortInt64s -count 5 ./internal/histogram
func BenchmarkSortInt64s(b *testing.B) {
	for _, width := range []int{18, 29} {
		for _, n := range []int{256, 384, 512, 768, 1024} {
			rng := rand.New(rand.NewSource(int64(n)))
			orig := make([]int64, n)
			for i := range orig {
				orig[i] = rng.Int63n(1 << width)
			}
			work, scratch := make([]int64, n), make([]int64, n)
			b.Run(fmt.Sprintf("bits=%d/n=%d/radix", width, n), func(b *testing.B) {
				for range b.N {
					copy(work, orig)
					radixSort(work, scratch)
				}
			})
			b.Run(fmt.Sprintf("bits=%d/n=%d/slices", width, n), func(b *testing.B) {
				for range b.N {
					copy(work, orig)
					slices.Sort(work)
				}
			})
		}
	}
}
