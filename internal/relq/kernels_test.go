package relq

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/agg"
)

var allOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// kernelSegments are the column segments every kernel is checked on:
// lengths at the ends of a block and one short of it, values at the int64
// extremes, negative, duplicated, a plain random mix, and — for each
// narrow width — offsets over the width's whole range from bases that are
// negative, zero and at either end of int64, in a block and in segments of
// 7 to 33 rows.
func kernelSegments() map[string][]int64 {
	rng := rand.New(rand.NewSource(14))
	segs := map[string][]int64{
		"empty":   {},
		"one":     {42},
		"one-min": {math.MinInt64},
	}
	for _, n := range []int{BlockSize - 1, BlockSize} {
		extremes, dups, mixed := make([]int64, n), make([]int64, n), make([]int64, n)
		for i := 0; i < n; i++ {
			extremes[i] = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, -1, 0, 1}[rng.Intn(7)]
			dups[i] = []int64{-7, -7, 0, 5, 5, 5}[rng.Intn(6)]
			mixed[i] = rng.Int63n(2001) - 1000
		}
		segs[fmt.Sprintf("extremes-%d", n)] = extremes
		segs[fmt.Sprintf("dups-%d", n)] = dups
		segs[fmt.Sprintf("mixed-%d", n)] = mixed
	}
	for w, span := range []int64{1: 1<<8 - 1, 2: 1<<16 - 1, 4: 1<<32 - 1} {
		if span == 0 {
			continue
		}
		for _, at := range []struct {
			name string
			base int64
		}{{"min", math.MinInt64}, {"neg", -span / 2}, {"zero", 0}, {"max", math.MaxInt64 - span}} {
			col := make([]int64, BlockSize)
			for i := range col {
				col[i] = at.base + rng.Int63n(span+1)
			}
			col[3], col[BlockSize-5] = at.base, at.base+span // both ends of the width
			segs[fmt.Sprintf("u%d-%s", 8*w, at.name)] = col
			// Around the lane kernels' 32-row passes, with both ends of
			// the width in each.
			for _, n := range []int{7, 8, 15, 16, 17, 31, 32, 33} {
				short := slices.Clone(col[:n])
				short[0], short[n-1] = at.base+span, at.base
				segs[fmt.Sprintf("u%d-%s-%d", 8*w, at.name, n)] = short
			}
		}
	}
	return segs
}

// kernelRHS are comparison points selecting none, all and some of the
// segments above, for every operator; rhsFor adds the points around one
// segment's own zone.
var kernelRHS = []int64{math.MinInt64, math.MinInt64 + 1, -1000, -7, -1, 0, 5, 42, 1000,
	math.MaxInt64 - 1, math.MaxInt64}

func rhsFor(col []int64) []int64 {
	if len(col) == 0 {
		return kernelRHS
	}
	zl, zh := zoneOf(col)
	// The -1/+1 wrap at the int64 extremes; any int64 is a fair rhs. The
	// offsets 2^w - 1 and 2^w are a lane's last value and the first past
	// it.
	return append([]int64{zl - 1, zl, zl + 1, zl + (zh-zl)/2, zh - 1, zh, zh + 1,
		zl + 1<<8 - 1, zl + 1<<8, zl + 1<<16 - 1, zl + 1<<16, zl + 1<<32 - 1, zl + 1<<32}, kernelRHS...)
}

// segmentAs stores col at the given element width (which must hold its
// span) the way seal does, so kernels can be checked at widths seal would
// not have picked as well as at the one it would. Width 0 is a dictionary
// block (col must hold at most maxDict values).
func segmentAs(col []int64, width int) segment {
	if width == 8 || len(col) == 0 {
		return segment{i64: col}
	}
	zl, _ := zoneOf(col)
	switch width {
	case 0:
		return encodeDict(col, 8)
	case 1:
		return segment{base: zl, u8: narrow[uint8](col, zl)}
	case 2:
		return segment{base: zl, u16: narrow[uint16](col, zl)}
	}
	return segment{base: zl, u32: narrow[uint32](col, zl)}
}

// widthsFor lists the element widths that can hold col.
func widthsFor(col []int64) []int {
	widths := []int{8}
	if len(col) == 0 {
		return widths
	}
	zl, zh := zoneOf(col)
	span := uint64(zh) - uint64(zl)
	for _, w := range []int{4, 2, 1} {
		if span < 1<<(8*w) {
			widths = append(widths, w)
		}
	}
	return widths
}

// zoneRef is the per-operator zone-map truth table step.zone replaces.
func zoneRef(op CmpOp, rhs, lo, hi int64) zoneResult {
	switch op {
	case OpEq:
		if rhs < lo || rhs > hi {
			return zoneNone
		}
		if lo == hi {
			return zoneAll
		}
	case OpNe:
		if lo == hi && lo == rhs {
			return zoneNone
		}
		if rhs < lo || rhs > hi {
			return zoneAll
		}
	case OpLt:
		if hi < rhs {
			return zoneAll
		}
		if lo >= rhs {
			return zoneNone
		}
	case OpLe:
		if hi <= rhs {
			return zoneAll
		}
		if lo > rhs {
			return zoneNone
		}
	case OpGt:
		if lo > rhs {
			return zoneAll
		}
		if hi <= rhs {
			return zoneNone
		}
	case OpGe:
		if lo >= rhs {
			return zoneAll
		}
		if hi < rhs {
			return zoneNone
		}
	}
	return zonePartial
}

func zoneOf(col []int64) (lo, hi int64) {
	lo, hi = col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// observe is the oracle's fold: one Observe per row, ascending.
func observe(col []int64, rows []int32) agg.Partial {
	var p agg.Partial
	for _, i := range rows {
		p.Observe(float64(col[i]))
	}
	return p
}

// checkStep runs every kernel for one step over one segment, stored at
// every width that holds it, against the rows want says match.
func checkStep(t *testing.T, label string, s step, col []int64, want func(v int64) bool) {
	t.Helper()
	var rows, odd, oddRows []int32 // matching rows; odd rows; matching odd rows
	for i, v := range col {
		if i%2 == 1 {
			odd = append(odd, int32(i))
		}
		if want(v) {
			rows = append(rows, int32(i))
			if i%2 == 1 {
				oddRows = append(oddRows, int32(i))
			}
		}
	}
	if s.empty {
		// No kernel can express an empty step; matchBlock answers for it.
		if len(rows) != 0 {
			t.Fatalf("%s: step is empty but %d rows match", label, len(rows))
		}
		if len(col) > 0 && s.zone(zoneOf(col)) != zoneNone {
			t.Fatalf("%s: empty step's zone is not zoneNone", label)
		}
		return
	}
	if len(col) > 0 {
		zl, zh := zoneOf(col)
		switch z := s.zone(zl, zh); {
		case z == zoneNone && len(rows) != 0, z == zoneAll && len(rows) != len(col):
			t.Fatalf("%s: zone verdict %d with %d of %d rows matching", label, z, len(rows), len(col))
		}
	}
	layouts := widthsFor(col)
	if encodeDict(col, 8).u8 != nil {
		layouts = append(layouts, 0)
	}
	for _, w := range layouts {
		g := segmentAs(col, w)
		at := fmt.Sprintf("at %d bytes", w)
		if w == 0 {
			at = "as dictionary codes"
		}
		label := label + " " + at
		switch {
		case g.u8 != nil:
			checkKernels(t, label, s, g, g.u8, col, rows, odd, oddRows)
		case g.u16 != nil:
			checkKernels(t, label, s, g, g.u16, col, rows, odd, oddRows)
		case g.u32 != nil:
			checkKernels(t, label, s, g, g.u32, col, rows, odd, oddRows)
		default:
			checkKernels(t, label, s, g, g.i64, col, rows, odd, oddRows)
		}
	}
}

// laneSet is the lane kernels of every width, as package init sets them
// (hostLaneSet), as goLanes writes them, or none (the generic path, which
// arm64 and hosts without AVX2 take).
type laneSet struct {
	k8  laneKernels[uint8]
	k16 laneKernels[uint16]
	k32 laneKernels[uint32]
}

func hostLaneSet() laneSet { return laneSet{lanes8, lanes16, lanes32} }

func goLaneSet() laneSet { return laneSet{goLanes[uint8](), goLanes[uint16](), goLanes[uint32]()} }

// withLanes runs f with ks as the package's lane kernels and puts back
// the ones it found.
func withLanes(ks laneSet, f func()) {
	saved := hostLaneSet()
	lanes8, lanes16, lanes32 = ks.k8, ks.k16, ks.k32
	defer func() { lanes8, lanes16, lanes32 = saved.k8, saved.k16, saved.k32 }()
	f()
}

// laneSets are the sets every kernel check runs under.
func laneSets() map[string]laneSet {
	return map[string]laneSet{"host": hostLaneSet(), "Go": goLaneSet(), "generic": {}}
}

// hostLanes returns the lane kernels matchBlock runs at E's width.
func hostLanes[E elem]() *laneKernels[E] {
	var k any
	switch any(E(0)).(type) {
	case uint8:
		k = &lanes8
	case uint16:
		k = &lanes16
	case uint32:
		k = &lanes32
	default:
		k = &lanes64
	}
	return k.(*laneKernels[E])
}

// goLanes are the lane kernels written in Go, the lane test and fold in
// E's own arithmetic over the whole passes of col: the glue around them is
// checked on any host, and the host's own kernels against them. At 8
// bytes there are none.
func goLanes[E elem]() laneKernels[E] {
	if _, wide := any(E(0)).(int64); wide {
		return laneKernels[E]{}
	}
	whole := func(col []E) []E { return col[:len(col)&^(laneGroup-1)] }
	return laneKernels[E]{
		mask: func(col []E, base, span E, mask []uint32) int {
			n := 0
			for i, v := range whole(col) {
				if v-base > span {
					mask[i/laneGroup] &^= 1 << (i % laneGroup)
				}
			}
			for _, w := range mask[:len(col)/laneGroup] {
				n += bits.OnesCount32(w)
			}
			return n
		},
		fold: func(col []E, mask []uint32) (sum uint64, lo, hi E) {
			lo = ^E(0)
			for i, v := range whole(col) {
				if mask[i/laneGroup]>>(i%laneGroup)&1 == 1 {
					sum, lo, hi = sum+uint64(v), min(lo, v), max(hi, v)
				}
			}
			return sum, lo, hi
		},
	}
}

// maskOf returns the mask of a block of n rows that sets the given rows.
func maskOf(n int, rows []int32) []uint32 {
	mask := make([]uint32, (n+laneGroup-1)/laneGroup)
	for _, r := range rows {
		mask[r/laneGroup] |= 1 << (r % laneGroup)
	}
	return mask
}

// checkKernels is checkStep at one element type: enc is segment g's
// offsets of the values col (its codes, in a dictionary block).
func checkKernels[E elem](t *testing.T, label string, s step, g segment, enc []E, col []int64, rows, odd, oddRows []int32) {
	t.Helper()
	base := s.rebase(&g)
	if dict := g.dict(); dict != nil {
		var ok bool
		if base, s.span, ok = s.codes(dict); !ok {
			if len(rows) != 0 {
				t.Fatalf("%s: no code matches but %d rows do", label, len(rows))
			}
			return
		}
	}
	// One step from every row and one from the odd rows, as a first and a
	// later conjunct, through the generic body and through each lane set
	// by the width-dispatched path matchBlock takes.
	all, matching := maskOf(len(col), allRows(len(col))), maskOf(len(col), rows)
	for _, c := range []struct {
		name     string
		from, to []uint32
		n        int
	}{{"first step", all, matching, len(rows)}, {"later step", maskOf(len(col), odd), maskOf(len(col), oddRows), len(oddRows)}} {
		mask := slices.Clone(c.from)
		if n := maskCol(enc, base, s.span, mask); n != c.n || !slices.Equal(mask, c.to) {
			t.Fatalf("%s: %s: maskCol leaves %d rows, want %d (mask %x, want %x)", label, c.name, n, c.n, mask, c.to)
		}
		for name, ks := range laneSets() {
			mask := slices.Clone(c.from)
			withLanes(ks, func() {
				if n := runStep(hostLanes[E](), enc, base, s.span, mask); n != c.n || !slices.Equal(mask, c.to) {
					t.Fatalf("%s: %s: %s runStep leaves %d rows, want %d (mask %x, want %x)", label, c.name, name, n, c.n, mask, c.to)
				}
			})
		}
	}

	if len(col) == 0 {
		return
	}
	zl, zh := zoneOf(col)
	// The fold over the matching rows and over every row, under each lane
	// set, against the oracle's Observe sequence, to the byte.
	for _, c := range []struct {
		name string
		rows []int32
		mask []uint32
	}{{"matching rows", rows, matching}, {"every row", allRows(len(col)), all}} {
		if len(c.rows) == 0 {
			continue // scan never folds an empty selection
		}
		want := observe(col, c.rows)
		for name, ks := range laneSets() {
			f := newFold()
			withLanes(ks, func() { f.block(&g, c.mask, len(c.rows), zone{zl, zh}) })
			if got := f.partial(); got != want || !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
				t.Fatalf("%s: %s fold of the %s %+v, oracle %+v", label, name, c.name, got, want)
			}
		}
	}
}

func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// TestKernelsMatchScalar checks every kernel, for every operator and at
// every element type, against cmpMatch and Partial.Observe.
func TestKernelsMatchScalar(t *testing.T) {
	for name, col := range kernelSegments() {
		for _, op := range allOps {
			for _, rhs := range rhsFor(col) {
				s := newStep(0, op, rhs)
				label := fmt.Sprintf("%s: v %s %d", name, op, rhs)
				checkStep(t, label, s, col, func(v int64) bool { return cmpMatch(op, v, rhs) })
			}
		}
	}
}

// TestLaneArc checks the lane form of intervals against every value of a
// one-byte lane, for bases and spans inside the lane, at its ends, just
// past it and at the ends of uint64, where the interval wraps.
func TestLaneArc(t *testing.T) {
	const top = 1<<8 - 1
	pts := []uint64{0, 1, 2, 127, top - 1, top, top + 1, top + 2, 1 << 16, 1 << 63,
		math.MaxUint64 - top - 1, math.MaxUint64 - top, math.MaxUint64 - 1, math.MaxUint64}
	for _, base := range pts {
		for _, span := range pts {
			lb, ls, ok := laneArc(base, span, top)
			for v := uint64(0); v <= top; v++ {
				want := v-base <= span
				got := ok && (v-lb)&top <= ls
				if got != want {
					t.Fatalf("interval (%d, %d): lane form (%d, %d, %v) says %v for %d", base, span, lb, ls, ok, got, v)
				}
			}
			if ok && (lb > top || ls > top) {
				t.Fatalf("interval (%d, %d): lane form (%d, %d) is not inside the lane", base, span, lb, ls)
			}
		}
	}
}

// TestZoneMatchesTruthTable sweeps step.zone over small and extreme zones
// (checkStep holds it sound on real segments; this holds it as sharp as
// the table it replaced, so blocks_pruned does not move).
func TestZoneMatchesTruthTable(t *testing.T) {
	pts := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	for _, op := range allOps {
		for _, rhs := range pts {
			s := newStep(0, op, rhs)
			for _, zl := range pts {
				for _, zh := range pts {
					if zl > zh {
						continue
					}
					if got, want := s.zone(zl, zh), zoneRef(op, rhs, zl, zh); got != want {
						t.Fatalf("v %s %d on zone [%d, %d]: %d, want %d", op, rhs, zl, zh, got, want)
					}
				}
			}
		}
	}
}

// TestRangeStep checks two conjuncts on one column narrowed to one step,
// for every pair of ordered or equality operators, including pairs no
// value satisfies.
func TestRangeStep(t *testing.T) {
	rangeRHS := []int64{math.MinInt64, -1000, -7, 0, 5, 1000, math.MaxInt64}
	segs := kernelSegments()
	for _, name := range []string{"one", "extremes-2047", "dups-2048", "mixed-2048", "u8-neg", "u16-max", "u32-min"} {
		col, rhs := segs[name], rangeRHS
		if name[0] == 'u' {
			// A narrow segment sits far from rangeRHS: cut it at its own
			// zone's quarters, and just outside both ends.
			zl, zh := zoneOf(col)
			q := (zh - zl) / 4
			rhs = []int64{math.MinInt64, zl - 1, zl + q, zl + 2*q, zl + 3*q, zh + 1, math.MaxInt64}
		}
		for _, op1 := range allOps {
			for _, op2 := range allOps {
				if op1 == OpNe || op2 == OpNe {
					continue
				}
				for _, a := range rhs {
					for _, b := range rhs {
						s := newStep(0, op1, a)
						s.narrow(interval(op2, b))
						label := fmt.Sprintf("%s: v %s %d AND v %s %d", name, op1, a, op2, b)
						checkStep(t, label, s, col, func(v int64) bool {
							return cmpMatch(op1, v, a) && cmpMatch(op2, v, b)
						})
					}
				}
			}
		}
	}
}

// guardTable builds a one-column table (plus a row-number column to
// select on) from the given values.
func guardTable(t *testing.T, vals []int64) *Table {
	t.Helper()
	tbl := NewTable(Schema{Name: "T", Columns: []Column{{Name: "r", Type: TInt}, {Name: "v", Type: TInt}}})
	for r, v := range vals {
		if err := tbl.InsertInts(int64(r), v); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestSumExactnessGuard pins the integer SUM's fallback. Each case's float
// replay rounds at least once where the integer sum does not, so a guard
// that trips late, or not at all, changes the encoded bytes.
func TestSumExactnessGuard(t *testing.T) {
	const big = 1 << 53
	fill := func(n int, v int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := map[string][]int64{}

	// The running sum crosses 2^53 in the middle of the second block:
	// 2^53 + 1 + 1 + ... stays at 2^53 in float64 (ties to even).
	mid := fill(2*BlockSize, 1)
	mid[BlockSize+100] = big
	cases["crosses mid-block"] = mid

	// It crosses between blocks: block 0 sums to exactly 2^53, block 1
	// adds odd ones.
	between := fill(2*BlockSize, 1)
	between[0] = big - (BlockSize - 1)
	cases["crosses between blocks"] = between

	// One value past 2^53 that float64 cannot hold; the small values
	// before it are the exact prefix the replay starts from.
	single := fill(BlockSize+50, 3)
	single[BlockSize+7] = big + 1
	cases["single value past 2^53"] = single

	// MinInt64: its magnitude overflows int64, and two of them overflow
	// the integer sum.
	cases["MinInt64"] = []int64{5, math.MinInt64, 1, math.MinInt64, 1, -1}

	// The bound is met exactly: 2048 x 2^42 is 2^53, still exact; the
	// ones after it are not.
	cases["bound met exactly"] = append(fill(BlockSize, 1<<42), 1, 1)

	// One past the bound: selecting v <> 0 folds 2^53 exactly, then a lone
	// 1 from a block whose zone is [0, 1], then another.
	lone := fill(BlockSize, 0)
	lone[9] = 1
	cases["one past the bound"] = append(append(fill(BlockSize, 1<<42), lone...), lone...)

	// The bound is on magnitudes: a negative zone end counts too.
	cases["negative past the bound"] = []int64{-big, -1, -1, -1}

	// Cancelling: the sum stays small but a partial sum does not, so the
	// float result depends on the order.
	cases["large partial sums cancel"] = []int64{big, 1, 1, 1, -big, 1}

	// The same crossings over blocks sealed narrow, where the fold sums
	// offsets and adds rows x base: rows sits a fixed distance from a base
	// of magnitude 3 x 2^40, so each block charges three eighths of the
	// bound — two fit, the sum passes 2^53 two thirds into the third, and
	// from there odd offsets round away. Spread picks the sealed width.
	rows := func(n int, base int64, spread int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = base + (int64(i)*7919)%spread
		}
		return out
	}
	const base = 3 << 40
	cases["1-byte offsets, crosses mid-block"] = rows(3*BlockSize+50, base, 200)
	cases["2-byte offsets, crosses mid-block"] = rows(3*BlockSize+50, base, 60_000)
	cases["4-byte offsets, negative base"] = rows(3*BlockSize+50, -base-(1<<31), 1<<31)
	// Two sealed blocks of -2^41 are -2^53 exactly, all of it rows x base;
	// the tail's ones are past the bound and round away.
	cases["negative base, crosses between blocks"] = append(fill(2*BlockSize, -(1<<41)), -1, -1, -1)
	// Stays exact: a huge base on few enough rows, all of it in rows x base.
	cases["huge base, exact"] = rows(BlockSize+9, 1<<41, 100)

	for name, vals := range cases {
		tbl := guardTable(t, vals)
		for _, zones := range []bool{true, false} {
			tbl.SetZoneMaps(zones)
			for _, sql := range []string{
				"SELECT SUM(v) FROM T",
				"SELECT SUM(v) FROM T WHERE r >= 0",
				fmt.Sprintf("SELECT SUM(v) FROM T WHERE r <> %d", len(vals)/2),
				"SELECT AVG(v) FROM T WHERE r >= 3",
				"SELECT SUM(v) FROM T WHERE v <> 0",
			} {
				p, err := tbl.Bind(MustParse(sql))
				if err != nil {
					t.Fatal(err)
				}
				assertPlanMatchesOracle(t, tbl, p, 0, fmt.Sprintf("%s zones=%v: %s", name, zones, sql))
			}
		}
	}

	// The cases above must be ones where the integer sum is the wrong
	// answer, or they pin nothing.
	var isum int64
	for _, v := range mid {
		isum += v
	}
	midTable := guardTable(t, mid)
	p, _ := midTable.Bind(MustParse("SELECT SUM(v) FROM T"))
	if got := p.ExecuteOracle(midTable, 0).Sum; got == float64(isum) {
		t.Fatalf("oracle sum %v equals the integer sum: the case does not round", got)
	}
	narrowed := guardTable(t, cases["1-byte offsets, crosses mid-block"])
	if g := narrowed.cols[1].sealed[2]; g.u8 == nil || g.base < base {
		t.Fatalf("the 1-byte case sealed as %+v", g)
	}
	isum = 0
	for _, v := range cases["1-byte offsets, crosses mid-block"] {
		isum += v
	}
	p, _ = narrowed.Bind(MustParse("SELECT SUM(v) FROM T"))
	if got := p.ExecuteOracle(narrowed, 0).Sum; got == float64(isum) {
		t.Fatalf("oracle sum %v equals the integer sum: the sealed case does not round", got)
	}
}

// TestSelectivityOfUnsatisfiableComparison pins the saturation fix:
// v < MinInt64 matches nothing, so it must estimate 0 and run first,
// where rhs-1 used to wrap to MaxInt64 and estimate every row.
func TestSelectivityOfUnsatisfiableComparison(t *testing.T) {
	tbl := NewTable(Schema{Name: "T", Columns: []Column{
		{Name: "a", Type: TInt, Indexed: true}, {Name: "b", Type: TInt, Indexed: true}}})
	for r := 0; r < 1000; r++ {
		if err := tbl.InsertInts(int64(r), int64(r%500)); err != nil {
			t.Fatal(err)
		}
	}
	ts := tbl.BuildSummary()
	for _, c := range []struct {
		op  CmpOp
		rhs int64
	}{{OpLt, math.MinInt64}, {OpGt, math.MaxInt64}} {
		if got := predSelectivity(ts.Column("b"), c.op, c.rhs); got != 0 {
			t.Errorf("selectivity of b %s %d = %v, want 0", c.op, c.rhs, got)
		}
		q := &Query{Agg: agg.Count, CountAll: true, Table: "T", Preds: []Pred{
			{Col: "a", Op: OpLt, Val: Expr{Int: 500}}, // half the rows
			{Col: "b", Op: c.op, Val: Expr{Int: c.rhs}},
		}}
		p, err := tbl.Bind(q)
		if err != nil {
			t.Fatal(err)
		}
		buf := getExecBuf(len(p.preds))
		order := p.predOrder(ts, p.resolveRHS(0, buf), buf)
		if order[0] != 1 {
			t.Errorf("b %s %d ordered %v: the unsatisfiable conjunct must run first", c.op, c.rhs, order)
		}
		execBufPool.Put(buf)
		if got := p.CountMatching(tbl, 0); got != 0 {
			t.Errorf("b %s %d matches %d rows", c.op, c.rhs, got)
		}
	}
}

// TestExecuteAllocs holds steady-state execution to zero allocations, on
// the counters table and on one with sealed blocks of every width plus a
// tail.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tbl, _ := statsTable(t)
	tbl.BuildSummary()
	w := newWidthsTable(0)
	w.fill(t, 2*BlockSize+100)
	sqls := map[*Table][]string{
		tbl: {
			"SELECT SUM(v) FROM T WHERE v < 50",
			"SELECT SUM(v) FROM T WHERE v < 50 AND ts >= 1000",
			"SELECT MAX(v) FROM T WHERE v < 50 AND ts >= 1000 AND v <> 7",
			"SELECT COUNT(*) FROM T WHERE v >= 10 AND v <= 50 AND ts <> 5",
		},
		w.Table: {"SELECT COUNT(*) FROM T WHERE r >= 100 AND r < 4100"},
	}
	for i, c := range widthCases {
		col, mid := w.schema.Columns[i+1].Name, int64(uint64(c.min)+c.span/2)
		sqls[w.Table] = append(sqls[w.Table],
			fmt.Sprintf("SELECT SUM(%s) FROM T WHERE %s <= %d AND r <> 9", col, col, mid),
			fmt.Sprintf("SELECT MIN(r) FROM T WHERE r >= 100 AND %s > %d", col, mid))
	}
	for tbl, list := range sqls {
		for _, sql := range list {
			p, err := tbl.Bind(MustParse(sql))
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(50, func() { p.Execute(tbl, 0) }); n != 0 {
				t.Errorf("Execute allocates %v times per run: %s", n, sql)
			}
			if n := testing.AllocsPerRun(50, func() { p.CountMatching(tbl, 0) }); n != 0 {
				t.Errorf("CountMatching allocates %v times per run: %s", n, sql)
			}
		}
	}
}

// TestLaneKernelsMatchGeneric holds each width's lane kernels, the host's
// and goLanes, to the generic bodies they stand in for, maskCol and
// aggMask: at every tail length after 0, 1 and 63 whole passes (a kernel
// must leave the tail's mask word alone), under all-zero, all-one and
// sparse mask words, over offsets that include 0 and 2^w - 1, and on a
// block of 2^w - 1 everywhere, which at 2 bytes is the fold's per-lane
// sum limit.
func TestLaneKernelsMatchGeneric(t *testing.T) {
	for name, ks := range map[string]laneSet{"host": hostLaneSet(), "Go": goLaneSet()} {
		if ks.k8.mask == nil {
			t.Logf("%s: no lane kernels", name)
			continue
		}
		checkLanes(t, name, ks.k8)
		checkLanes(t, name, ks.k16)
		checkLanes(t, name, ks.k32)
	}
}

func checkLanes[E elem](t *testing.T, name string, k laneKernels[E]) {
	top := uint64(^E(0))
	label := fmt.Sprintf("%s lanes at %d bytes", name, bits.Len64(top)/8)
	rng := rand.New(rand.NewSource(58))
	random, full := make([]E, BlockSize), make([]E, BlockSize)
	for i := range random {
		random[i], full[i] = E(rng.Uint64()), E(top)
	}
	words := map[string]func(w int) uint32{
		"zero":   func(int) uint32 { return 0 },
		"one":    func(int) uint32 { return math.MaxUint32 },
		"sparse": func(w int) uint32 { return 1<<(w%32) | 1<<((7*w+3)%32) },
		"mixed":  func(w int) uint32 { return []uint32{0, math.MaxUint32, uint32(w) * 0x9e3779b9}[w%3] },
	}
	// Steps over the offsets: all, none, either end, inside, wrapping
	// through 2^64 - 1 → 0, and past the lane.
	steps := [][2]uint64{{0, top}, {0, 0}, {top, 0}, {1, top - 2}, {top / 3, top / 3}, {math.MaxUint64 - 3, 10}, {top + 1, 5}}
	var lengths []int
	for _, passes := range []int{0, 1, 63} {
		for tail := 0; tail < laneGroup; tail++ {
			lengths = append(lengths, passes*laneGroup+tail)
		}
	}
	for _, n := range append(lengths, BlockSize) {
		for _, src := range [][]E{random, full} {
			col := slices.Clone(src[:n])
			if n > 1 && src[0] != E(top) {
				col[n/2], col[n-1] = 0, E(top)
			}
			g := n &^ (laneGroup - 1)
			for wname, word := range words {
				from := make([]uint32, (n+laneGroup-1)/laneGroup)
				for w := range from {
					from[w] = word(w)
				}
				if r := n % laneGroup; r != 0 {
					from[len(from)-1] &= 1<<r - 1
				}
				at := fmt.Sprintf("%s, %d rows, %s words", label, n, wname)
				for _, st := range steps {
					want := slices.Clone(from)
					wn := maskCol(col, st[0], st[1], want)
					got := slices.Clone(from)
					if gn := runStep(&k, col, st[0], st[1], got); gn != wn || !slices.Equal(got, want) {
						t.Fatalf("%s, step %v: %d rows %x, maskCol %d rows %x", at, st, gn, got, wn, want)
					}
					lb, ls, ok := laneArc(st[0], st[1], top)
					if !ok {
						continue
					}
					// The kernel alone, handed every row: the whole passes'
					// words as maskCol leaves them, the tail's untouched.
					got = slices.Clone(from)
					gn := k.mask(col, E(lb), E(ls), got)
					passes := 0
					for _, w := range want[:g/laneGroup] {
						passes += bits.OnesCount32(w)
					}
					if gn != passes || !slices.Equal(got[:g/laneGroup], want[:g/laneGroup]) || !slices.Equal(got[g/laneGroup:], from[g/laneGroup:]) {
						t.Fatalf("%s, step %v: the mask kernel alone counts %d, leaves %x; want %d, %x", at, st, gn, got, passes, append(want[:g/laneGroup:g/laneGroup], from[g/laneGroup:]...))
					}
				}
				sum, lo, hi := k.fold(col, from)
				ws, wlo, whi := aggMask(col[:g], from[:g/laneGroup])
				if ws == 0 && wlo == math.MaxInt64 {
					wlo, whi = int64(top), 0 // no bit set in the whole passes
				}
				if int64(sum) != ws || int64(lo) != wlo || int64(hi) != whi {
					t.Fatalf("%s: the fold kernel gives (%d, %d, %d), aggMask (%d, %d, %d)", at, sum, lo, hi, ws, wlo, whi)
				}
			}
		}
	}
}

// TestGenericKernels reruns the differential suites and FuzzSealBlock's
// committed corpus with the lane kernels cleared: the generic path, which
// arm64 and hosts without AVX2 take, checked on every host.
func TestGenericKernels(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSealBlock/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzSealBlock corpus: %v", err)
	}
	withLanes(laneSet{}, func() {
		t.Run("VectorizedMatchesOracleRandomized", TestVectorizedMatchesOracleRandomized)
		t.Run("SumExactnessGuard", TestSumExactnessGuard)
		for _, file := range files {
			t.Run("FuzzSealBlock/"+filepath.Base(file), func(t *testing.T) {
				checkSealBlock(t, blockValues(corpusBytes(t, file)))
			})
		}
	})
}

// corpusBytes reads a committed fuzz corpus entry of one []byte.
func corpusBytes(t *testing.T, file string) []byte {
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	arg, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok {
		t.Fatalf("%s is not a corpus entry of one []byte", file)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return []byte(s)
}
