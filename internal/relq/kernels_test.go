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
// extremes, negative, duplicated, and a plain random mix.
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
	return segs
}

// kernelRHS are comparison points selecting none, all and some of every
// segment above, for every operator.
var kernelRHS = []int64{math.MinInt64, math.MinInt64 + 1, -1000, -7, -1, 0, 5, 42, 1000,
	math.MaxInt64 - 1, math.MaxInt64}

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

// checkStep runs every kernel for one step over one segment against the
// rows want says match.
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
	sel := selInit(col, s.base, s.span, make(selVec, BlockSize))
	same("selInit", sel, rows)
	if n := countCol(col, s.base, s.span); n != len(rows) {
		t.Fatalf("%s: countCol = %d, want %d", label, n, len(rows))
	}
	if n := countSel(col, s.base, s.span, odd); n != len(oddRows) {
		t.Fatalf("%s: countSel = %d, want %d", label, n, len(oddRows))
	}
	same("selRefine", selRefine(col, s.base, s.span, append(selVec(nil), odd...)), oddRows)

	if len(col) == 0 {
		return
	}
	zl, zh := zoneOf(col)
	switch z := s.zone(zl, zh); {
	case z == zoneNone && len(rows) != 0, z == zoneAll && len(rows) != len(col):
		t.Fatalf("%s: zone verdict %d with %d of %d rows matching", label, z, len(rows), len(col))
	}
	// Both folds, against the oracle's Observe sequence, to the byte.
	for _, c := range []struct {
		name string
		sel  selVec
		want agg.Partial
	}{{"aggColSel", sel, observe(col, rows)}, {"aggColAll", nil, observe(col, allRows(len(col)))}} {
		if c.sel != nil && len(c.sel) == 0 {
			continue // scan never folds an empty selection
		}
		f := newFold()
		f.block(col, c.sel, zl, zh)
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

// TestKernelsMatchScalar checks every kernel, for every operator, against
// cmpMatch and Partial.Observe.
func TestKernelsMatchScalar(t *testing.T) {
	for name, col := range kernelSegments() {
		for _, op := range allOps {
			for _, rhs := range kernelRHS {
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
	for _, name := range []string{"one", "extremes-2047", "dups-2048", "mixed-2048"} {
		col := segs[name]
		for _, op1 := range allOps {
			for _, op2 := range allOps {
				if op1 == OpNe || op2 == OpNe {
					continue
				}
				for _, a := range rangeRHS {
					for _, b := range rangeRHS {
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

// TestExecuteAllocs holds steady-state execution to zero allocations.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tbl, _ := statsTable(t)
	tbl.BuildSummary()
	for _, sql := range []string{
		"SELECT SUM(v) FROM T WHERE v < 50",
		"SELECT SUM(v) FROM T WHERE v < 50 AND ts >= 1000",
		"SELECT MAX(v) FROM T WHERE v < 50 AND ts >= 1000 AND v <> 7",
		"SELECT COUNT(*) FROM T WHERE v >= 10 AND v <= 50 AND ts <> 5",
	} {
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
