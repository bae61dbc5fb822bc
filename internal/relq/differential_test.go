package relq

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The differential suite: the vectorized block-pruned executor must be
// byte-identical to the row-at-a-time oracle — agg.Partial equality AND
// encoded-bytes equality, so float accumulation order divergence in the
// last ulp cannot hide — over randomized schemas, tables and queries,
// over blocks sealed at every width and the open tail, with zone maps on
// and off, with and without a summary (which enables selectivity-based
// conjunct reordering).

// colStyle picks how one generated column's values are distributed, to
// force every interesting zone-map shape.
type colStyle int

const (
	styleClustered  colStyle = iota // monotone-ish: blocks prunable
	styleSmall                      // low cardinality: frequency histogram
	styleWide                       // uniform wide: mostly unprunable
	styleConstant                   // one value: zoneAll / zoneNone blocks
	styleNegative                   // includes negative values
	styleHuge                       // int64 extremes and magnitudes past 2^53: inexact float sums
	styleByte                       // 200 values from a large negative base: blocks seal at one byte
	styleShort                      // 50,000 values below MaxInt64: two bytes, base near the top
	styleMixedWidth                 // the spread grows with the block: 1, 2, 4 then 8 bytes
	styleDict                       // 200 values across all of int64: one-byte dictionary codes, inexact sums
	numStyles
)

// mixedSpread is styleMixedWidth's value spread in block b.
var mixedSpread = []int64{100, 40_000, 3_000_000_000, math.MaxInt64}

// hugeVals are the values styleHuge draws from beside random ones: the
// int64 extremes (MinInt64's magnitude overflows int64), both sides of
// 2^53 where float64 stops holding every integer, and small values whose
// addition to a large float sum rounds away.
var hugeVals = []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1), 1 << 62, -(1 << 62), 0, 1, -1, 3}

func genHuge(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return hugeVals[rng.Intn(len(hugeVals))]
	case 1:
		return int64(rng.Uint64()) // anywhere in int64
	case 2:
		return rng.Int63n(1<<54) - 1<<53 // around the exactness bound
	default:
		return rng.Int63n(1000) // small: keeps some blocks' sums exact
	}
}

// dictVals are styleDict's values, ascending: hugeVals and random values
// across all of int64, 200 distinct in all, so every block of them seals
// as dictionary codes and most of its SUMs are replayed in floating point.
var dictVals = func() []int64 {
	rng := rand.New(rand.NewSource(53))
	vals := slices.Clone(hugeVals)
	for len(vals) < 200 {
		if v := int64(rng.Uint64()); !slices.Contains(vals, v) {
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	return vals
}()

// dictRHS is a comparison point for a styleDict column: a value it holds,
// one beside it that it does not, or one between two neighbours.
func dictRHS(rng *rand.Rand) int64 {
	i := rng.Intn(len(dictVals) - 1)
	v, next := dictVals[i], dictVals[i+1]
	switch rng.Intn(4) {
	case 0:
		return v
	case 1:
		return v + 1
	case 2:
		return next - 1
	}
	return v + (next-v)/2
}

var diffVocab = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}

// genTable builds a random table and remembers per-column styles so the
// query generator can aim predicates at (and off) the data.
func genTable(rng *rand.Rand, rows int) (*Table, []colStyle) {
	ncols := 2 + rng.Intn(4)
	schema := Schema{Name: "T"}
	styles := make([]colStyle, ncols)
	for c := 0; c < ncols; c++ {
		if rng.Intn(4) == 0 {
			schema.Columns = append(schema.Columns,
				Column{Name: fmt.Sprintf("s%d", c), Type: TString, Indexed: rng.Intn(2) == 0})
			styles[c] = styleSmall
			continue
		}
		styles[c] = colStyle(rng.Intn(int(numStyles)))
		schema.Columns = append(schema.Columns,
			Column{Name: fmt.Sprintf("c%d", c), Type: TInt, Indexed: rng.Intn(2) == 0})
	}
	t := NewTableWithCapacity(schema, rows)
	vals := make([]int64, ncols)
	for r := 0; r < rows; r++ {
		for c, col := range schema.Columns {
			if col.Type == TString {
				vals[c] = HashString(diffVocab[rng.Intn(len(diffVocab))])
				continue
			}
			switch styles[c] {
			case styleClustered:
				vals[c] = 1_000_000 + int64(r) + rng.Int63n(16)
			case styleSmall:
				vals[c] = rng.Int63n(40)
			case styleWide:
				vals[c] = rng.Int63n(2_000_000) - 1_000_000
			case styleConstant:
				vals[c] = 77
			case styleNegative:
				vals[c] = -rng.Int63n(10_000)
			case styleHuge:
				vals[c] = genHuge(rng)
			case styleByte:
				vals[c] = -7_000_000_000 + rng.Int63n(200)
			case styleShort:
				vals[c] = math.MaxInt64 - rng.Int63n(50_000)
			case styleMixedWidth:
				vals[c] = -50 + rng.Int63n(mixedSpread[r/BlockSize%len(mixedSpread)])
			case styleDict:
				vals[c] = dictVals[rng.Intn(len(dictVals))]
			}
		}
		if err := t.InsertInts(vals...); err != nil {
			panic(err)
		}
	}
	return t, styles
}

// genQuery emits a random query in the Seaweed SQL subset against the
// table, through the real parser so the whole parse→bind→execute path is
// exercised. nowSeconds is the clock NOW() will be bound against.
func genQuery(rng *rand.Rand, t *Table, styles []colStyle, nowSeconds int64) *Query {
	var sb strings.Builder
	intCols := []int{}
	for c, col := range t.schema.Columns {
		if col.Type == TInt {
			intCols = append(intCols, c)
		}
	}
	aggs := []string{"COUNT(*)"}
	for _, c := range intCols {
		for _, k := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
			aggs = append(aggs, fmt.Sprintf("%s(%s)", k, t.schema.Columns[c].Name))
		}
	}
	fmt.Fprintf(&sb, "SELECT %s FROM T", aggs[rng.Intn(len(aggs))])

	npreds := rng.Intn(4)
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for i := 0; i < npreds; i++ {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		c := rng.Intn(len(t.schema.Columns))
		col := t.schema.Columns[c]
		if col.Type == TString {
			op := "="
			if rng.Intn(3) == 0 {
				op = "<>"
			}
			// Mostly aim at the vocabulary (string-hash equality hits),
			// sometimes at a value no row holds.
			word := diffVocab[rng.Intn(len(diffVocab))]
			if rng.Intn(4) == 0 {
				word = "zulu"
			}
			fmt.Fprintf(&sb, "%s %s '%s'", col.Name, op, word)
			continue
		}
		op := ops[rng.Intn(len(ops))]
		// Pick the comparison point: a value present in the data, a value
		// far outside the column's range (all blocks prunable), or a NOW()
		// arithmetic expression landing in or out of range.
		var rhs int64
		switch rng.Intn(4) {
		case 0: // in-data value
			if t.rows > 0 {
				rhs = t.value(c, rng.Intn(t.rows))
			}
		case 1: // far below / far above everything
			if rng.Intn(2) == 0 {
				rhs = -5_000_000_000
			} else {
				rhs = 5_000_000_000
			}
		default: // near the range, not necessarily present
			rhs = rng.Int63n(2_200_000) - 1_100_000
			switch styles[c] {
			case styleHuge:
				rhs = genHuge(rng)
			case styleByte:
				rhs = -7_000_000_000 + rng.Int63n(220) - 10
			case styleShort:
				rhs = math.MaxInt64 - rng.Int63n(55_000)
			case styleDict:
				rhs = dictRHS(rng)
			}
		}
		// MinInt64 has no literal (the parser negates a positive number),
		// but NOW() + off wraps to it.
		if rng.Intn(3) == 0 || rhs == math.MinInt64 {
			// NOW() arithmetic: offset chosen so NOW()+off == rhs.
			off := rhs - nowSeconds
			if off >= 0 {
				fmt.Fprintf(&sb, "%s %s NOW() + %d", col.Name, op, off)
			} else {
				fmt.Fprintf(&sb, "%s %s NOW() - %d", col.Name, op, -off)
			}
		} else {
			fmt.Fprintf(&sb, "%s %s %d", col.Name, op, rhs)
		}
	}
	return MustParse(sb.String())
}

// assertPlanMatchesOracle runs one plan on tbl down both paths and fails
// on any divergence, including in the encoded bytes. label names the query.
func assertPlanMatchesOracle(t *testing.T, tbl *Table, p *Plan, nowSeconds int64, label string) {
	t.Helper()
	got := p.Execute(tbl, nowSeconds)
	want := p.ExecuteOracle(tbl, nowSeconds)
	if got != want {
		t.Fatalf("%s: Execute mismatch\n  vec:    %+v\n  oracle: %+v", label, got, want)
	}
	if !bytes.Equal(got.Encode(nil), want.Encode(nil)) {
		t.Fatalf("%s: encoded Partial bytes differ", label)
	}
	if gc, wc := p.CountMatching(tbl, nowSeconds), p.CountMatchingOracle(tbl, nowSeconds); gc != wc {
		t.Fatalf("%s: CountMatching %d != oracle %d", label, gc, wc)
	}
}

func TestVectorizedMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	// Row counts hit: empty, single row, sub-block (tail only), exactly one
	// block (sealed, empty tail), block+1, and several multi-block sizes
	// with and without a partial tail.
	rowChoices := []int{0, 1, 100, BlockSize, BlockSize + 1, 3 * BlockSize, 4*BlockSize + 17, 5*BlockSize + 1000}
	sealedAt := map[int]int{} // width in bytes → sealed blocks the trials held
	dictBlocks := 0
	for trial := 0; trial < 80; trial++ {
		rows := rowChoices[rng.Intn(len(rowChoices))]
		tbl, styles := genTable(rng, rows)
		for c := range tbl.cols {
			for b := range tbl.cols[c].sealed {
				g := &tbl.cols[c].sealed[b]
				sealedAt[g.width()]++
				if g.dict() != nil {
					dictBlocks++
				}
			}
		}
		if rng.Intn(2) == 0 {
			// A summary enables selectivity-ordered conjunct evaluation;
			// runs without one cover the unordered path.
			tbl.BuildSummary()
		}
		nowSeconds := int64(1_000_000 + rng.Intn(100_000))
		for qi := 0; qi < 12; qi++ {
			q := genQuery(rng, tbl, styles, nowSeconds)
			p, err := tbl.Bind(q)
			if err != nil {
				t.Fatalf("bind %q: %v", q.Raw, err)
			}
			tbl.SetZoneMaps(true)
			assertPlanMatchesOracle(t, tbl, p, nowSeconds, fmt.Sprintf("trial=%d q=%d zones=on: %s", trial, qi, q.Raw))
			tbl.SetZoneMaps(false)
			assertPlanMatchesOracle(t, tbl, p, nowSeconds, fmt.Sprintf("trial=%d q=%d zones=off: %s", trial, qi, q.Raw))
			tbl.SetZoneMaps(true)
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		if sealedAt[w] < 20 {
			t.Errorf("the trials sealed only %d blocks at %d bytes: %v", sealedAt[w], w, sealedAt)
		}
	}
	if dictBlocks < 20 {
		t.Errorf("the trials sealed only %d dictionary blocks", dictBlocks)
	}
}

// TestVectorizedEdgeCases pins the hand-picked shapes the randomized suite
// might only graze: all-pruned, none-pruned, zoneAll fast paths, empty
// tables, and the predicate-free fast paths.
func TestVectorizedEdgeCases(t *testing.T) {
	schema := Schema{Name: "T", Columns: []Column{
		{Name: "ts", Type: TInt, Indexed: true},
		{Name: "v", Type: TInt, Indexed: true},
		{Name: "app", Type: TString, Indexed: true},
	}}
	tbl := NewTable(schema)
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 3*BlockSize+100; r++ {
		// ts strictly increasing → every block prunable by ts ranges.
		tbl.InsertInts(int64(r), rng.Int63n(1000), HashString(diffVocab[rng.Intn(3)]))
	}
	tbl.BuildSummary()
	now := int64(500_000)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM T",                                                          // no preds, no scan
		"SELECT SUM(v) FROM T",                                                            // no preds, full-column kernel
		"SELECT AVG(v) FROM T WHERE ts >= 999999999",                                      // all blocks pruned
		"SELECT SUM(v) FROM T WHERE ts >= 0",                                              // zoneAll everywhere: no kernel runs
		"SELECT SUM(v) FROM T WHERE ts >= 2048 AND ts < 4096",                             // exact block boundaries
		"SELECT MIN(v) FROM T WHERE ts > 6000",                                            // partial tail block only
		"SELECT MAX(v) FROM T WHERE app = 'alpha'",                                        // hash-equality, unprunable
		"SELECT COUNT(*) FROM T WHERE app <> 'alpha' AND v < 250 AND ts < NOW() - 497952", // 3-conjunct refine
		"SELECT SUM(v) FROM T WHERE v > 5000",                                             // kernels run, zero matches
	} {
		p, err := tbl.Bind(MustParse(sql))
		if err != nil {
			t.Fatalf("bind %q: %v", sql, err)
		}
		assertPlanMatchesOracle(t, tbl, p, now, sql)
	}

	empty := NewTable(schema)
	p, err := empty.Bind(MustParse("SELECT AVG(v) FROM T WHERE ts > 10"))
	if err != nil {
		t.Fatal(err)
	}
	assertPlanMatchesOracle(t, empty, p, now, "empty table")
}
