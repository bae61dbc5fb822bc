package dissem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// splitRange is the split the engine made while subranges stored their
// bounds, kept as the oracle for the bounds they derive now: it divides
// the inclusive range [lo, hi] into up to arity contiguous, equal-width
// inclusive parts and lists them.
func splitRange(lo, hi ids.ID, arity int) []idRange {
	out := make([]idRange, 0, arity)
	span := hi.Sub(lo)
	width := divByUint(span, uint64(arity))
	cur := lo
	for i := 0; i < arity; i++ {
		var end ids.ID
		if i == arity-1 {
			end = hi
		} else {
			end = cur.Add(width)
		}
		if end.Less(cur) { // overflow guard
			end = hi
		}
		out = append(out, idRange{cur, end})
		if end == hi {
			break
		}
		cur = end.AddUint64(1)
	}
	return out
}

// tiles reports whether parts cover [lo, hi] exactly: in order, each
// non-empty, each starting just past the one before.
func tiles(parts []idRange, lo, hi ids.ID) bool {
	if len(parts) == 0 || parts[0].lo != lo || parts[len(parts)-1].hi != hi {
		return false
	}
	for i, p := range parts {
		if p.hi.Less(p.lo) || i > 0 && p.lo != parts[i-1].hi.AddUint64(1) {
			return false
		}
	}
	return true
}

// derived is the fan-out an engine of the given arity gives a task over
// [lo, hi], as the bounds its subranges derive.
func derived(arity int, lo, hi ids.ID) []idRange {
	e := &Engine{cfg: Config{Arity: arity}}
	f := e.newFanout(&task{key: taskKey{lo: lo, hi: hi}}, &queryHdr{Query: testQuery})
	out := make([]idRange, len(f.subs))
	for i := range f.subs {
		out[i].lo, out[i].hi = f.subs[i].bounds()
	}
	return out
}

func TestSplitRangeProperties(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64, arityRaw uint8) bool {
		lo := ids.ID{Hi: aHi, Lo: aLo}
		hi := ids.ID{Hi: bHi, Lo: bLo}
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		arity := 2 + int(arityRaw%15)
		subs := splitRange(lo, hi, arity)
		return len(subs) <= arity && tiles(subs, lo, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSubrangeBoundsMatchSplit is the differential oracle for derived
// bounds: over random ranges, the whole namespace and spans shorter than
// the arity, at arities 2, 3 and 16 (and the rig's 4), the subranges a
// fan-out derives are the parts splitRange lists, bound for bound, and they
// tile the range exactly.
//
// Short spans of at least the arity are covered too. There splitRange's
// width+1-wide parts can run past hi before the last one (at arity 16,
// any span from 16 to a few hundred ids whose remainder is small), and it
// lists parts outside the range or reversed. The derived split stops at
// the part that reaches hi instead, so it tiles every span, and it equals
// splitRange wherever splitRange tiles. A split of the 128-bit namespace
// never comes near such a span: a range that narrow is a leaf long before.
func TestSubrangeBoundsMatchSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// check compares the two splits of [lo, hi]; oracleTiles says whether
	// splitRange tiles it, and must be true for every case but short spans
	// of at least the arity.
	check := func(arity int, lo, hi ids.ID) (oracleTiles bool) {
		t.Helper()
		got, want := derived(arity, lo, hi), splitRange(lo, hi, arity)
		if !tiles(got, lo, hi) {
			t.Fatalf("arity %d, [%s, %s]: derived bounds %v do not tile the range", arity, lo, hi, got)
		}
		if !tiles(want, lo, hi) {
			return false
		}
		if len(got) != len(want) {
			t.Fatalf("arity %d, [%s, %s]: %d subranges, splitRange %d", arity, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arity %d, [%s, %s]: subrange %d is [%s, %s], splitRange [%s, %s]",
					arity, lo, hi, i, got[i].lo, got[i].hi, want[i].lo, want[i].hi)
			}
		}
		return true
	}
	must := func(arity int, lo, hi ids.ID) {
		t.Helper()
		if !check(arity, lo, hi) {
			t.Fatalf("arity %d, [%s, %s]: splitRange does not tile the range", arity, lo, hi)
		}
	}
	for _, arity := range []int{2, 3, 4, 16} {
		must(arity, ids.ID{}, ids.MaxID)
		for k := 0; k < 2000; k++ {
			lo, hi := ids.Random(rng), ids.Random(rng)
			if hi.Less(lo) {
				lo, hi = hi, lo
			}
			must(arity, lo, hi)
		}
		// Short spans, mid-namespace and against either end of it.
		mid := ids.Random(rng)
		broken := 0
		for span := uint64(0); span < uint64(arity*arity+arity); span++ {
			for _, lo := range []ids.ID{mid, {}, ids.MaxID.Sub(ids.ID{Lo: span})} {
				hi := lo.AddUint64(span)
				if span < uint64(arity) {
					must(arity, lo, hi)
				} else if !check(arity, lo, hi) {
					broken++
				}
			}
		}
		t.Logf("arity %d: splitRange fails to tile %d of the %d short ranges", arity, broken, 3*(arity*arity+arity))
	}
}
