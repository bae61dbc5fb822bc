package relq

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
)

var allOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// kernelSegments are the column segments every kernel is checked on:
// lengths at the ends of a block and one short of it, values at the int64
// extremes, negative, duplicated, a plain random mix, and — for each
// narrow width — offsets over the width's whole range from bases that are
// negative, zero and at either end of int64.
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
	// The -1/+1 wrap at the int64 extremes; any int64 is a fair rhs.
	return append([]int64{zl - 1, zl, zl + 1, zl + (zh-zl)/2, zh - 1, zh, zh + 1}, kernelRHS...)
}

// segmentAs stores col at the given element width (which must hold its
// span) the way seal does, so kernels can be checked at widths seal would
// not have picked as well as at the one it would.
func segmentAs(col []int64, width int) segment {
	if width == 8 || len(col) == 0 {
		return segment{i64: col}
	}
	zl, _ := zoneOf(col)
	switch width {
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
	for _, w := range widthsFor(col) {
		g := segmentAs(col, w)
		label := fmt.Sprintf("%s at %d bytes", label, w)
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

// checkKernels is checkStep at one element type: enc is segment g's
// offsets of the values col.
func checkKernels[E elem](t *testing.T, label string, s step, g segment, enc []E, col []int64, rows, odd, oddRows []int32) {
	t.Helper()
	same := func(kernel string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s selects %d rows, want %d", label, kernel, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: %s row %d is %d, want %d", label, kernel, k, got[k], want[k])
			}
		}
	}
	base := s.rebase(&g)
	sel := selInit(enc, base, s.span, make(selVec, BlockSize))
	same("selInit", sel, rows)
	if n := countCol(enc, base, s.span); n != len(rows) {
		t.Fatalf("%s: countCol = %d, want %d", label, n, len(rows))
	}
	if n := countSel(enc, base, s.span, odd); n != len(oddRows) {
		t.Fatalf("%s: countSel = %d, want %d", label, n, len(oddRows))
	}
	same("selRefine", selRefine(enc, base, s.span, append(selVec(nil), odd...)), oddRows)

	if len(col) == 0 {
		return
	}
	zl, zh := zoneOf(col)
	// Both folds, against the oracle's Observe sequence, to the byte.
	for _, c := range []struct {
		name string
		sel  selVec
		n    int
		want agg.Partial
	}{{"aggColSel", sel, len(sel), observe(col, rows)}, {"aggColAll", nil, len(col), observe(col, allRows(len(col)))}} {
		if c.n == 0 {
			continue // scan never folds an empty selection
		}
		f := newFold()
		f.block(g, c.sel, c.n, zone{zl, zh})
		if got := f.partial(); got != c.want || !bytes.Equal(got.Encode(nil), c.want.Encode(nil)) {
			t.Fatalf("%s: %s fold %+v, oracle %+v", label, c.name, got, c.want)
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
				assertPlanMatchesOracle(t, p, 0, fmt.Sprintf("%s zones=%v", name, zones))
			}
		}
	}

	// The cases above must be ones where the integer sum is the wrong
	// answer, or they pin nothing.
	var isum int64
	for _, v := range mid {
		isum += v
	}
	p, _ := guardTable(t, mid).Bind(MustParse("SELECT SUM(v) FROM T"))
	if got := p.ExecuteOracle(0).Sum; got == float64(isum) {
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
	if got := p.ExecuteOracle(0).Sum; got == float64(isum) {
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
		if got := predSelectivity(ts.Columns["b"], c.op, c.rhs); got != 0 {
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
		order := p.predOrder(p.resolveRHS(0, buf), buf)
		if order[0] != 1 {
			t.Errorf("b %s %d ordered %v: the unsatisfiable conjunct must run first", c.op, c.rhs, order)
		}
		putExecBuf(buf)
		if got := p.CountMatching(0); got != 0 {
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
	w := newWidthsTable()
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
			if n := testing.AllocsPerRun(50, func() { p.Execute(0) }); n != 0 {
				t.Errorf("Execute allocates %v times per run: %s", n, sql)
			}
			if n := testing.AllocsPerRun(50, func() { p.CountMatching(0) }); n != 0 {
				t.Errorf("CountMatching allocates %v times per run: %s", n, sql)
			}
		}
	}
}
