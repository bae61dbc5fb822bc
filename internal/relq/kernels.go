package relq

import (
	"math"
	"slices"

	"repro/internal/agg"
)

// This file holds the batch-at-a-time execution kernels: the interval form
// every comparison is resolved to, its zone-map block test, the selection
// and counting kernels, and the aggregate fold. Each kernel is one tight
// branch-free loop over a contiguous column segment, written once and
// instantiated per element type (the narrower the block was sealed, the
// fewer cache lines a pass touches): no per-row function call, no per-row
// dispatch on the operator or the width, and no conditional jump that
// depends on the data — Anemone's columns are unordered, so such a jump
// mispredicts on every other row at mid selectivities.

// selVec indexes rows within one block. int32 suffices (BlockSize < 2^31)
// and halves the selection vector's cache footprint versus int.
type selVec = []int32

// step is one selection pass over one column. A row with value v matches
// iff uint64(v-base) <= span: subtracting base rotates the int64 circle so
// the matching values land on [0, span], and one unsigned compare tests
// both ends. Every CmpOp has this form — v = r is (r, 0), v >= r is
// (r, MaxInt64-r), v <> r is the wrapped interval (r+1, 2^64-2) that
// leaves out only r — and so does any conjunction of the ordered ones on
// one column (Bytes >= a AND Bytes <= b is (a, b-a)), which therefore
// costs one pass instead of two. What the form cannot say is "no value":
// that is the empty flag.
//
// A segment stores o = v - g.base, so over it the test is
// uint64(o) - rebase(g) <= span with the base moved once per (step,
// block). The arithmetic is modulo 2^64 throughout, which is why the
// wrapped interval of a <> needs no case of its own.
type step struct {
	col   int
	base  int64
	span  uint64
	ne    bool // the wrapped interval of a <>; never narrowed
	empty bool // unsatisfiable: v < MinInt64, or v >= 5 AND v <= 3
	skip  bool // per block: the zone map proved every row matches
}

// interval returns the closed interval of values satisfying (op, rhs), for
// every operator but OpNe. ok is false when no value does (v < MinInt64,
// v > MaxInt64), where rhs-1 / rhs+1 would wrap to the far end.
func interval(op CmpOp, rhs int64) (lo, hi int64, ok bool) {
	switch op {
	case OpEq:
		return rhs, rhs, true
	case OpLt:
		return math.MinInt64, rhs - 1, rhs != math.MinInt64
	case OpLe:
		return math.MinInt64, rhs, true
	case OpGt:
		return rhs + 1, math.MaxInt64, rhs != math.MaxInt64
	case OpGe:
		return rhs, math.MaxInt64, true
	}
	return 0, 0, false
}

// newStep returns the step of one conjunct.
func newStep(col int, op CmpOp, rhs int64) step {
	if op == OpNe {
		return step{col: col, base: rhs + 1, span: math.MaxUint64 - 1, ne: true}
	}
	s := step{col: col, base: math.MinInt64, span: math.MaxUint64}
	s.narrow(interval(op, rhs))
	return s
}

// narrow intersects the step's interval with [lo, hi] (ok false: with
// nothing).
func (s *step) narrow(lo, hi int64, ok bool) {
	lo = max(lo, s.base)
	hi = min(hi, s.base+int64(s.span))
	if s.empty || !ok || lo > hi {
		s.empty = true
		return
	}
	s.base, s.span = lo, uint64(hi)-uint64(lo)
}

// rebase returns the step's base in the offset domain of segment g.
func (s *step) rebase(g *segment) uint64 { return uint64(s.base) - uint64(g.base) }

// codes returns the step over the codes of a dictionary block with sorted
// values dict: code k matches iff uint64(k) - base <= span. ok is false
// when no code does. The step's values run from lo = s.base up to hi;
// dict[a:] are the values at or above lo and dict[:b] those at or below
// hi. Without a wrap (lo <= hi) the matching codes are [a, b-1]; when the
// interval wraps (a <>, whose values leave out only hi+1) they are [a, d)
// and [0, b), which is the same base and span taken modulo 2^64.
func (s *step) codes(dict []int64) (base, span uint64, ok bool) {
	lo, hi := s.base, s.base+int64(s.span)
	a, _ := slices.BinarySearch(dict, lo)
	b, found := slices.BinarySearch(dict, hi)
	if found {
		b++
	}
	if lo <= hi && b <= a {
		return 0, 0, false
	}
	return uint64(a), uint64(b-1) - uint64(a), true
}

// zoneResult classifies a block against one step using its zone map.
type zoneResult uint8

const (
	// zonePartial: the zone cannot decide; evaluate the step.
	zonePartial zoneResult = iota
	// zoneNone: no row in the block can match; the block is prunable.
	zoneNone
	// zoneAll: every row in the block matches; the step can be skipped
	// for this block without evaluation.
	zoneAll
)

// zone classifies a block whose column values lie in [zl, zh]. Under the
// step's rotation the zone is the arc from u1 up to u2. u1 > u2 means the
// arc passes through 2^64-1 → 0, so it holds base (a match) and base-1
// (not one: only the full interval has none, and its base is MinInt64,
// which no arc passes below). Otherwise the arc is [u1, u2] and is tested
// against [0, span] end by end.
func (s *step) zone(zl, zh int64) zoneResult {
	if s.empty {
		return zoneNone
	}
	u1, u2 := uint64(zl-s.base), uint64(zh-s.base)
	switch {
	case u1 > u2:
		return zonePartial
	case u2 <= s.span:
		return zoneAll
	case u1 > s.span:
		return zoneNone
	}
	return zonePartial
}

// The kernels below are kept out of line: inlined into matchBlock they
// compete with its locals for registers and the write cursor ends up on the
// stack, a store-to-load round trip per row. col holds a segment's offsets
// and base is the step's rebased to them.

// selInit scans a full block segment and returns the indices of matching
// rows, written into sel (len(sel) >= len(col)). The row index is stored
// unconditionally and the write cursor advances by the 0/1 comparison
// result, so the next matching row overwrites a non-matching one.
//
//go:noinline
func selInit[E elem](col []E, base, span uint64, sel selVec) selVec {
	sel = sel[:len(col)]
	n := 0
	for i, v := range col {
		sel[n] = int32(i)
		m := 0
		if uint64(v)-base <= span {
			m = 1
		}
		n += m
	}
	return sel[:n]
}

// selRefine filters an existing selection vector in place, keeping only
// the rows that also match. The write cursor never passes the read cursor,
// and ascending row order is preserved, which the float replay of the
// aggregate fold relies on.
//
//go:noinline
func selRefine[E elem](col []E, base, span uint64, sel selVec) selVec {
	n := 0
	for _, i := range sel {
		sel[n] = i
		m := 0
		if uint64(col[i])-base <= span {
			m = 1
		}
		n += m
	}
	return sel[:n]
}

// countCol counts the matching rows of a full block segment: selInit
// without the selection vector, for a plan's last step when only the count
// is wanted.
//
//go:noinline
func countCol[E elem](col []E, base, span uint64) int {
	n := 0
	for _, v := range col {
		m := 0
		if uint64(v)-base <= span {
			m = 1
		}
		n += m
	}
	return n
}

// countSel counts the rows of a selection vector that also match.
//
//go:noinline
func countSel[E elem](col []E, base, span uint64, sel selVec) int {
	n := 0
	for _, i := range sel {
		m := 0
		if uint64(col[i])-base <= span {
			m = 1
		}
		n += m
	}
	return n
}

// laneKernels are one width's SIMD selInit and countCol, set at package
// init where the host has them (kernels_amd64.go): over the first
// len(col) &^ (laneGroup-1) rows, v matches iff v - base (mod 2^w) <= span;
// sel returns how many row indices it wrote to sel, which holds len(col).
type laneKernels[E elem] struct {
	sel   func(col []E, base, span E, sel []int32) int
	count func(col []E, base, span E) int
}

var (
	lanes8  laneKernels[uint8]
	lanes16 laneKernels[uint16]
	lanes32 laneKernels[uint32]
	lanes64 laneKernels[int64] // none: 8-byte blocks run the generic kernels
)

const laneGroup = 32 // the rows a lane kernel tests in one pass

// laneArc returns the step (base, span) over the lane values 0..top, top
// = 2^w - 1: the arc from base to base+span modulo 2^64, cut to [0, top],
// is empty (ok false), all of it (span top) or one arc modulo 2^w, also
// when it wraps through 2^64 - 1 → 0, since it then holds top and 0.
func laneArc(base, span, top uint64) (lb, ls uint64, ok bool) {
	end := base + span
	wraps := end < base
	switch {
	case base > top && !wraps:
		return 0, 0, false
	case base > top:
		return 0, min(end, top), true
	case !wraps:
		return base, min(span, top-base), true
	case end+1 >= base:
		return 0, top, true
	}
	return base, top - base + end + 1, true
}

// runStep runs one step over one block's column segment. It narrows sel
// (nil: every row) to the rows that also match, writing a first vector
// into out; with count set it only counts them and returns no vector. A
// pass over the whole column runs at SIMD width where k, the width's lane
// kernels, are set: the lane kernel over the whole passes of col, and the
// generic kernel over the rows after them.
func runStep[E elem](k *laneKernels[E], col []E, base, span uint64, sel, out selVec, count bool) (int, selVec) {
	if sel != nil {
		if count {
			return countSel(col, base, span, sel), nil
		}
		sel = selRefine(col, base, span, sel)
		return len(sel), sel
	}
	g := len(col) &^ (laneGroup - 1)
	if k.sel == nil || g == 0 {
		if count {
			return countCol(col, base, span), nil
		}
		sel = selInit(col, base, span, out)
		return len(sel), sel
	}
	lb, ls, ok := laneArc(base, span, uint64(^E(0)))
	switch {
	case !ok:
		return 0, nil
	case count:
		return k.count(col[:g], E(lb), E(ls)) + countCol(col[g:], base, span), nil
	}
	sel = out[:len(col)]
	n := k.sel(col[:g], E(lb), E(ls), sel)
	tail := selInit(col[g:], base, span, sel[n:])
	for j := range tail {
		tail[j] += int32(g)
	}
	return n + len(tail), sel[:n+len(tail)]
}

// maxExactSum is 2^53: every integer of magnitude up to it is a float64.
const maxExactSum = 1 << 53

// fold accumulates one execution's aggregate over the matching rows, block
// by block, in the integer domain, and ends as exactly the agg.Partial the
// row-at-a-time oracle's Observe sequence builds:
//
//   - MIN/MAX: int64 → float64 conversion is monotone, so the float of the
//     integer minimum is the minimum of the floats.
//   - SUM: while Σ|v| over the rows folded so far is at most 2^53, every
//     partial sum the oracle forms is an integer of magnitude ≤ 2^53, so
//     exactly representable, so each of its float additions is exact and
//     its accumulator equals float64(sum) — whatever the order. room is
//     what is left of the 2^53 after charging every folded block its row
//     count times the largest |v| its zone map allows. The first block
//     that does not fit turns the fold inexact: fsum takes over from
//     float64(sum), exact at that point, and replays the oracle's single
//     float accumulator over that block and every later one in ascending
//     row order (float addition is not associative; anything else would
//     diverge in the last ulp).
//
// A block's kernel folds the stored offsets; its n rows' share of the
// segment's base is added once, n × base to the sum and base to each
// extremum. Under the guard n × |base| ≤ 2^53 and an offset sum is below
// BlockSize × 2^32, so nothing overflows while the sum is still read.
type fold struct {
	count    int64
	sum      int64
	room     uint64
	min, max int64
	inexact  bool
	fsum     float64
}

func newFold() fold {
	return fold{room: maxExactSum, min: math.MaxInt64, max: math.MinInt64}
}

// absU is |v| as a uint64; MinInt64 negates to itself, which converts to
// the right 2^63.
func absU(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// block folds n > 0 rows of one block's column segment — those sel
// selects, or all n of them when sel is nil — whose values lie in z.
func (f *fold) block(g segment, sel selVec, n int, z zone) {
	if !f.inexact {
		if m := max(absU(z.min), absU(z.max)); m == 0 || uint64(n) <= f.room/m {
			f.room -= uint64(n) * m
		} else {
			f.inexact, f.fsum = true, float64(f.sum)
		}
	}
	f.count += int64(n)
	switch {
	case g.dict() != nil:
		foldDict(f, g.u8, g.i64, sel)
	case g.u8 != nil:
		foldSeg(f, g.u8, g.base, sel, n)
	case g.u16 != nil:
		foldSeg(f, g.u16, g.base, sel, n)
	case g.u32 != nil:
		foldSeg(f, g.u32, g.base, sel, n)
	default:
		foldSeg(f, g.i64, g.base, sel, n)
	}
}

// foldSeg is block for one element type.
func foldSeg[E elem](f *fold, col []E, base int64, sel selVec, n int) {
	var sum, mn, mx int64
	if sel == nil {
		sum, mn, mx = aggColAll(col)
	} else {
		sum, mn, mx = aggColSel(col, sel)
	}
	f.sum += sum + int64(n)*base
	f.min, f.max = min(f.min, base+mn), max(f.max, base+mx)
	if !f.inexact {
		return
	}
	if sel == nil {
		for _, o := range col {
			f.fsum += float64(base + int64(o))
		}
		return
	}
	for _, i := range sel {
		f.fsum += float64(base + int64(col[i]))
	}
}

// foldDict is block for a dictionary block: the sum is of dict[code], and
// the dictionary is sorted, so the extrema are the values of the extreme
// codes.
func foldDict(f *fold, codes []uint8, dict []int64, sel selVec) {
	var sum int64
	var mn, mx uint8
	if sel == nil {
		sum, mn, mx = aggDictAll(codes, dict)
	} else {
		sum, mn, mx = aggDictSel(codes, dict, sel)
	}
	f.sum += sum
	f.min, f.max = min(f.min, dict[mn]), max(f.max, dict[mx])
	if !f.inexact {
		return
	}
	if sel == nil {
		for _, c := range codes {
			f.fsum += float64(dict[c])
		}
		return
	}
	for _, i := range sel {
		f.fsum += float64(dict[codes[i]])
	}
}

// partial returns the folded aggregate.
func (f *fold) partial() agg.Partial {
	out := agg.Partial{Count: f.count, Sum: float64(f.sum)}
	if f.inexact {
		out.Sum = f.fsum
	}
	if f.count > 0 {
		out.MinV, out.MaxV, out.HasBound = float64(f.min), float64(f.max), true
	}
	return out
}

// aggColSel folds the selected offsets of a column segment into their
// integer sum and extrema (min and max compile to conditional moves).
//
//go:noinline
func aggColSel[E elem](col []E, sel selVec) (sum, mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	for _, i := range sel {
		o := int64(col[i])
		sum += o
		mn = min(mn, o)
		mx = max(mx, o)
	}
	return sum, mn, mx
}

// aggColAll is aggColSel over every row of the segment, for blocks where
// zone maps proved all rows match (or predicate-free plans).
//
//go:noinline
func aggColAll[E elem](col []E) (sum, mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	for _, v := range col {
		o := int64(v)
		sum += o
		mn = min(mn, o)
		mx = max(mx, o)
	}
	return sum, mn, mx
}

// aggDictSel folds the selected rows of a dictionary block into the sum of
// their values and their extreme codes.
//
//go:noinline
func aggDictSel(codes []uint8, dict []int64, sel selVec) (sum int64, mn, mx uint8) {
	mn, mx = math.MaxUint8, 0
	for _, i := range sel {
		c := codes[i]
		sum += dict[c]
		mn = min(mn, c)
		mx = max(mx, c)
	}
	return sum, mn, mx
}

// aggDictAll is aggDictSel over every row of the block.
//
//go:noinline
func aggDictAll(codes []uint8, dict []int64) (sum int64, mn, mx uint8) {
	mn, mx = math.MaxUint8, 0
	for _, c := range codes {
		sum += dict[c]
		mn = min(mn, c)
		mx = max(mx, c)
	}
	return sum, mn, mx
}
