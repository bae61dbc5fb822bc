package relq

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/agg"
)

// This file holds the batch-at-a-time execution kernels: the interval form
// every comparison is resolved to, its zone-map block test, the mask
// kernel and the aggregate fold. Each kernel is one tight loop over a
// contiguous column segment, written once and instantiated per element
// type (the narrower the block was sealed, the fewer cache lines a pass
// touches): no per-row function call, no per-row dispatch on the operator
// or the width, and no conditional jump on a compare result — Anemone's
// columns are unordered, so such a jump mispredicts on every other row at
// mid selectivities.
//
// A block's selection is a bitmap: bit i%32 of word i/32 is set iff block
// row i matched every step run so far. Each step ANDs its matches into
// it, so a conjunction costs one sequential pass per step, and the fold
// reads the aggregate column whole under the mask: no kernel reads a
// column one selected row at a time.

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

// fillMask sets the bits of a block's first rows rows in mask, which
// holds (rows+31)/32 words, and only those.
func fillMask(mask []uint32, rows int) {
	for w := range mask {
		mask[w] = math.MaxUint32
	}
	if r := rows % laneGroup; r != 0 {
		mask[len(mask)-1] = 1<<r - 1
	}
}

// The kernels below are kept out of line: inlined into matchBlock they
// compete with its locals for registers. col holds a segment's offsets
// and base is the step's rebased to them.

// maskCol ANDs the rows of col that match into mask, which holds
// (len(col)+31)/32 words, and returns how many bits are left set. Each
// compare result enters its word at the top as the word shifts down, not
// branched on.
//
//go:noinline
func maskCol[E elem](col []E, base, span uint64, mask []uint32) int {
	n := 0
	for w := range mask {
		rows := col[w*laneGroup : min(len(col), (w+1)*laneGroup)]
		var word uint32
		for _, v := range rows {
			m := uint32(0)
			if uint64(v)-base <= span {
				m = 1 << (laneGroup - 1)
			}
			word = word>>1 | m
		}
		mask[w] &= word >> (laneGroup - len(rows))
		n += bits.OnesCount32(mask[w])
	}
	return n
}

// aggMask folds the offsets of the rows of col whose mask bits are set
// into their integer sum and extrema (MaxInt64 and MinInt64 when no bit
// is), visiting the set bits in ascending row order, a full word's 32
// rows in one straight loop.
//
//go:noinline
func aggMask[E elem](col []E, mask []uint32) (sum, mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	for w, word := range mask {
		if word == math.MaxUint32 {
			for _, v := range col[w*laneGroup : (w+1)*laneGroup] {
				o := int64(v)
				sum += o
				mn, mx = min(mn, o), max(mx, o)
			}
			continue
		}
		for ; word != 0; word &= word - 1 {
			o := int64(col[w*laneGroup+bits.TrailingZeros32(word)])
			sum += o
			mn, mx = min(mn, o), max(mx, o)
		}
	}
	return sum, mn, mx
}

// laneKernels are one width's SIMD mask kernel and masked fold, set at
// package init where the host has them (kernels_amd64.go). Both run over
// the first len(col) &^ (laneGroup-1) rows, at most a block of them, and
// the mask words of those rows. mask is maskCol over the lane test — v
// matches iff v - base (mod 2^w) <= span — and fold is aggMask with its
// results in E: sum, and lo and hi, which are ^E(0) and 0 when no bit is
// set.
type laneKernels[E elem] struct {
	mask func(col []E, base, span E, mask []uint32) int
	fold func(col []E, mask []uint32) (sum uint64, lo, hi E)
}

var (
	lanes8  laneKernels[uint8]
	lanes16 laneKernels[uint16]
	lanes32 laneKernels[uint32]
	lanes64 laneKernels[int64] // none: 8-byte blocks run the generic kernels
)

const laneGroup = 32 // the rows of one mask word, which a lane kernel tests in one pass

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

// runStep ANDs the rows of one block's column segment that match one step
// into mask and returns how many bits are left set. Where k, the width's
// lane kernels, are set, the whole passes of col run at SIMD width and the
// rows after them through maskCol.
func runStep[E elem](k *laneKernels[E], col []E, base, span uint64, mask []uint32) int {
	n, g := 0, 0
	if k.mask != nil {
		lb, ls, ok := laneArc(base, span, uint64(^E(0)))
		if !ok {
			clear(mask)
			return 0
		}
		g = len(col) &^ (laneGroup - 1)
		n = k.mask(col[:g], E(lb), E(ls), mask)
	}
	return n + maskCol(col[g:], base, span, mask[g/laneGroup:])
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

// block folds the n > 0 rows of one block's column segment that mask
// selects, whose values lie in z.
func (f *fold) block(g *segment, mask []uint32, n int, z zone) {
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
		foldDict(f, g.u8, g.i64, mask)
	case g.u8 != nil:
		foldSeg(f, &lanes8, g.u8, g.base, mask, n)
	case g.u16 != nil:
		foldSeg(f, &lanes16, g.u16, g.base, mask, n)
	case g.u32 != nil:
		foldSeg(f, &lanes32, g.u32, g.base, mask, n)
	default:
		foldSeg(f, &lanes64, g.i64, g.base, mask, n)
	}
}

// foldSeg is block for one element type: the whole passes through k's
// fold where it is set, the rows after them through aggMask. A lane
// fold's ^E(0) and 0 for no row are offsets every row lies between, so
// they need no case of their own.
func foldSeg[E elem](f *fold, k *laneKernels[E], col []E, base int64, mask []uint32, n int) {
	sum, mn, mx, g := int64(0), int64(math.MaxInt64), int64(math.MinInt64), 0
	if k.fold != nil {
		g = len(col) &^ (laneGroup - 1)
		s, lo, hi := k.fold(col[:g], mask)
		sum, mn, mx = int64(s), int64(lo), int64(hi)
	}
	s, lo, hi := aggMask(col[g:], mask[g/laneGroup:])
	f.sum += sum + s + int64(n)*base
	f.min, f.max = min(f.min, base+min(mn, lo)), max(f.max, base+max(mx, hi))
	if !f.inexact {
		return
	}
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			f.fsum += float64(base + int64(col[w*laneGroup+bits.TrailingZeros32(word)]))
		}
	}
}

// foldDict is block for a dictionary block: the sum is of dict[code], and
// the dictionary is sorted, so the extrema are the values of the extreme
// codes. The inexact replay rides on the same ascending walk.
func foldDict(f *fold, codes []uint8, dict []int64, mask []uint32) {
	mn, mx := uint8(math.MaxUint8), uint8(0)
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			c := codes[w*laneGroup+bits.TrailingZeros32(word)]
			f.sum += dict[c]
			mn, mx = min(mn, c), max(mx, c)
			if f.inexact {
				f.fsum += float64(dict[c])
			}
		}
	}
	f.min, f.max = min(f.min, dict[mn]), max(f.max, dict[mx])
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
