package relq

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// widthCase is one column of the storage tests: a block's worth of values
// spanning exactly [min, min+span] must seal at width bytes. A case with
// distinct > 0 draws only that many values, evenly spaced over the span,
// and one with dict set must seal as dictionary codes.
type widthCase struct {
	name     string
	min      int64
	span     uint64
	width    int
	distinct uint64
	dict     bool
}

// widthCases sit on both sides of every width edge, from bases that are
// zero, negative and at either end of int64 (where a width taken from the
// zone's maximum instead of its span would come out wrong on both sides).
var widthCases = []widthCase{
	{"span0", 77, 0, 1, 0, false},
	{"span255", 0, 1<<8 - 1, 1, 0, false},
	{"span255-neg", -200, 1<<8 - 1, 1, 0, false},
	{"span255-max", math.MaxInt64 - 255, 1<<8 - 1, 1, 0, false},
	{"span256", 1000, 1 << 8, 2, 0, false},
	{"span65535-neg", -65535, 1<<16 - 1, 2, 0, false},
	{"span65536", -1, 1 << 16, 4, 0, false},
	{"span2^32-1", 0, 1<<32 - 1, 4, 0, false},
	{"span2^32-1-min", math.MinInt64, 1<<32 - 1, 4, 0, false},
	{"span2^32", -(1 << 31), 1 << 32, 8, 0, false},
	{"full", math.MinInt64, math.MaxUint64, 8, 0, false},
	// Dictionary codes where offsets would take 4 or 8 bytes and the block
	// holds at most 256 values; not at 2 bytes, nor at 257 values.
	{"dict2-span2^16-1", 0, 1<<16 - 1, 2, 2, false},
	{"dict256-span2^16", -7, 1 << 16, 1, 256, true},
	{"dict256-span2^32", -(1 << 31), 1 << 32, 1, 256, true},
	{"dict257-span2^32", -(1 << 31), 1 << 32, 8, 257, false},
	{"dict6-full", math.MinInt64, math.MaxUint64, 1, 6, true},
}

// at returns the case's value for row r: both ends of the span early in
// every block, pseudo-random offsets inside it elsewhere.
func (c widthCase) at(rng *rand.Rand, r int) int64 {
	switch r % BlockSize {
	case 1:
		return c.min
	case 2:
		return int64(uint64(c.min) + c.span)
	}
	if c.distinct > 0 {
		k := rng.Uint64() % c.distinct
		if k == c.distinct-1 {
			return int64(uint64(c.min) + c.span)
		}
		return int64(uint64(c.min) + c.span/(c.distinct-1)*k)
	}
	if c.span == math.MaxUint64 {
		return int64(rng.Uint64())
	}
	return int64(uint64(c.min) + rng.Uint64()%(c.span+1))
}

func (g *segment) width() int {
	switch {
	case g.u8 != nil:
		return 1
	case g.u16 != nil:
		return 2
	case g.u32 != nil:
		return 4
	}
	return 8
}

// widthsTable is a table with one column per width case plus a row
// number, and the rows inserted into it, for comparison.
type widthsTable struct {
	*Table
	rng  *rand.Rand
	want [][]int64 // want[c][r]
}

// newWidthsTable returns an empty widthsTable, created for rowCap rows.
func newWidthsTable(rowCap int) *widthsTable {
	schema := Schema{Name: "T", Columns: []Column{{Name: "r", Type: TInt}}}
	for i := range widthCases {
		schema.Columns = append(schema.Columns, Column{Name: fmt.Sprintf("w%d", i), Type: TInt})
	}
	return &widthsTable{Table: NewTableWithCapacity(schema, rowCap), rng: rand.New(rand.NewSource(17)),
		want: make([][]int64, len(schema.Columns))}
}

// fill inserts rows until the table holds n.
func (w *widthsTable) fill(t *testing.T, n int) {
	t.Helper()
	row := make([]int64, len(w.want))
	for r := w.rows; r < n; r++ {
		row[0] = int64(r)
		for i, c := range widthCases {
			row[i+1] = c.at(w.rng, r)
		}
		if err := w.InsertInts(row...); err != nil {
			t.Fatal(err)
		}
		for i, v := range row {
			w.want[i] = append(w.want[i], v)
		}
	}
}

// check compares every stored value, through value and through
// ColumnValues, with what was inserted.
func (w *widthsTable) check(t *testing.T, label string) {
	t.Helper()
	for c, col := range w.schema.Columns {
		got := w.ColumnValues(col.Name)
		if len(got) != w.rows || len(w.want[c]) != w.rows {
			t.Fatalf("%s: column %s decodes %d values of %d rows", label, col.Name, len(got), w.rows)
		}
		for r, want := range w.want[c] {
			if got[r] != want || w.value(c, r) != want {
				t.Fatalf("%s: column %s row %d: ColumnValues %d, value %d, inserted %d",
					label, col.Name, r, got[r], w.value(c, r), want)
			}
		}
	}
}

// TestSealRoundTrip walks a table through its first seal: nothing is
// encoded at BlockSize-1 rows, everything is at BlockSize (each column at
// the width its span calls for, or as dictionary codes, the tail empty),
// rows inserted after the seal land in the reused tail, and every value
// reads back unchanged at each point — with zone maps in use or not. Then
// it walks a short last block through its seal at the row hint, its
// reopening by one more row and its seal at BlockSize.
func TestSealRoundTrip(t *testing.T) {
	w := newWidthsTable(0)
	w.fill(t, BlockSize-1)
	for c := range w.cols {
		if col := &w.cols[c]; len(col.sealed) != 0 || len(col.tail) != BlockSize-1 || len(col.zones) != 1 {
			t.Fatalf("column %d before the seal: %d sealed, %d tail rows, %d zones", c, len(col.sealed), len(col.tail), len(col.zones))
		}
	}
	w.check(t, "one row short of a block")

	w.fill(t, BlockSize)
	for c := range w.cols {
		if col := &w.cols[c]; len(col.sealed) != 1 || len(col.tail) != 0 || len(col.zones) != 1 {
			t.Fatalf("column %d at the seal: %d sealed, %d tail rows, %d zones", c, len(col.sealed), len(col.tail), len(col.zones))
		}
	}
	w.check(t, "exactly one block")

	w.fill(t, BlockSize+1)
	w.check(t, "one row after the seal")
	w.fill(t, 3*BlockSize+100)
	w.SetZoneMaps(false)
	w.check(t, "three blocks and a tail, zone maps off")
	w.SetZoneMaps(true)

	for i, c := range widthCases {
		col := &w.cols[i+1]
		if len(col.sealed) != 3 || len(col.tail) != 100 || cap(col.tail) > BlockSize {
			t.Fatalf("%s: %d sealed, tail %d of %d", c.name, len(col.sealed), len(col.tail), cap(col.tail))
		}
		for b := range col.sealed {
			g, z := &col.sealed[b], col.zones[b]
			if z.min != c.min || uint64(z.max)-uint64(z.min) != c.span {
				t.Fatalf("%s block %d: zone [%d, %d], want [%d, +%d]", c.name, b, z.min, z.max, c.min, c.span)
			}
			if g.width() != c.width {
				t.Errorf("%s block %d: sealed at %d bytes, want %d", c.name, b, g.width(), c.width)
			}
			if d := g.dict(); (d != nil) != c.dict {
				t.Errorf("%s block %d: dictionary block %v, want %v", c.name, b, d != nil, c.dict)
			} else if d != nil {
				if g.base != 0 || d[0] != z.min || d[len(d)-1] != z.max || uint64(len(d)) > c.distinct {
					t.Errorf("%s block %d: base %d, %d-value dictionary over [%d, %d], zone [%d, %d]",
						c.name, b, g.base, len(d), d[0], d[len(d)-1], z.min, z.max)
				}
				for i := 1; i < len(d); i++ {
					if d[i-1] >= d[i] {
						t.Fatalf("%s block %d: dictionary not ascending at %d: %d, %d", c.name, b, i, d[i-1], d[i])
					}
				}
			} else if g.base != z.min && (c.width != 8 || g.base != 0) {
				t.Errorf("%s block %d: base %d under zone minimum %d", c.name, b, g.base, z.min)
			}
		}
	}

	w.checkQueries(t, "three blocks and a tail")

	// A table created for 2 blocks and 300 rows seals the last 300 at the
	// hint and keeps no tail; one more row reopens them into the tail, and
	// the block seals again, full, at 3 blocks.
	const hint = 2*BlockSize + 300
	w = newWidthsTable(hint)
	w.fill(t, hint)
	for c := range w.cols {
		if col := &w.cols[c]; len(col.sealed) != 3 || len(col.sealed[2].appendTo(nil)) != 300 || cap(col.tail) != 0 {
			t.Fatalf("column %d at the hint: %d sealed, tail %d of %d", c, len(col.sealed), len(col.tail), cap(col.tail))
		}
	}
	w.check(t, "sealed at the hint")
	w.checkQueries(t, "sealed at the hint")
	w.fill(t, hint+1)
	for c := range w.cols {
		if col := &w.cols[c]; len(col.sealed) != 2 || len(col.tail) != 301 || len(col.zones) != 3 {
			t.Fatalf("column %d reopened: %d sealed, %d tail rows, %d zones", c, len(col.sealed), len(col.tail), len(col.zones))
		}
	}
	w.check(t, "reopened by one row")
	w.checkQueries(t, "reopened by one row")
	w.fill(t, 3*BlockSize)
	for i, c := range widthCases {
		col := &w.cols[i+1]
		if g := &col.sealed[len(col.sealed)-1]; len(col.sealed) != 3 || len(col.tail) != 0 || g.width() != c.width || (g.dict() != nil) != c.dict {
			t.Fatalf("%s sealed again: %d sealed, %d tail rows, last block %d bytes a row", c.name, len(col.sealed), len(col.tail), g.width())
		}
	}
	w.check(t, "sealed again")
	w.checkQueries(t, "sealed again")
}

// checkQueries holds every width case's column to the oracle, zone maps on
// and off, with comparison points at either end of its span, at its middle
// and, for a dictionary, between two of its values.
func (w *widthsTable) checkQueries(t *testing.T, label string) {
	t.Helper()
	defer w.SetZoneMaps(true)
	for i, c := range widthCases {
		mid, col := int64(uint64(c.min)+c.span/2), w.schema.Columns[i+1].Name
		for _, sql := range []string{
			fmt.Sprintf("SELECT SUM(%s) FROM T", col),
			fmt.Sprintf("SELECT MIN(%s) FROM T WHERE r >= 100", col),
			fmt.Sprintf("SELECT COUNT(*) FROM T WHERE %s >= NOW() + 0", col),
			fmt.Sprintf("SELECT MAX(%s) FROM T WHERE %s <> NOW() + 0 AND r < 6000", col, col),
			fmt.Sprintf("SELECT AVG(r) FROM T WHERE %s <= NOW() + 0 AND %s >= NOW() - 9", col, col),
			fmt.Sprintf("SELECT SUM(%s) FROM T WHERE %s > NOW() + 0 AND %s < NOW() + 2", col, col, col),
		} {
			p, err := w.Bind(MustParse(sql))
			if err != nil {
				t.Fatal(err)
			}
			for _, zones := range []bool{true, false} {
				w.SetZoneMaps(zones)
				for _, now := range []int64{c.min, mid, int64(uint64(c.min) + c.span)} {
					assertPlanMatchesOracle(t, w.Table, p, now, fmt.Sprintf("%s: %s zones=%v now=%d: %s", label, c.name, zones, now, sql))
				}
			}
		}
	}
}

// TestStorageBudget holds a table to the storage its rows need: a hint of
// a few rows reserves those rows, not a block, and keeps its tail; a table
// of blocks that reaches its hint seals the last one at its own length and
// leaves nothing in the tail; a few wide values seal as one-byte codes; and
// what StorageBytes reports is what the layout occupies.
func TestStorageBudget(t *testing.T) {
	if got := int(reflect.TypeOf(segment{}).Size()); got != segmentBytes {
		t.Fatalf("segmentBytes is %d, a segment is %d bytes", segmentBytes, got)
	}

	// Eleven integer columns, as anemone's Flow table has.
	schema := Schema{Name: "Flow"}
	for c := 0; c < 11; c++ {
		schema.Columns = append(schema.Columns, Column{Name: fmt.Sprintf("c%d", c), Type: TInt})
	}
	row := make([]int64, 11)

	small := NewTableWithCapacity(schema, 12)
	empty := small.StorageBytes()
	for r := 0; r < 12; r++ {
		small.InsertInts(row...)
	}
	t.Logf("a 12-row table: %d bytes of storage, %d before its rows", small.StorageBytes(), empty)
	if got := small.StorageBytes(); got > 2<<10 || got != empty {
		t.Errorf("a 12-row table holds %d bytes of storage (%d before its rows), want at most 2 KB and no growth", got, empty)
	}
	if got := NewTable(schema).StorageBytes(); got != 0 {
		t.Errorf("an empty table holds %d bytes of storage", got)
	}

	// k blocks, exactly and with a short last one, hinted and not: with a
	// hint all of it sealed, the directory and zone maps never regrown,
	// and no tail; without one, the tail of the open block.
	const k = 3
	for _, n := range []int{k * BlockSize, k*BlockSize + 1000} {
		for _, hint := range []int{0, n} {
			tbl := NewTableWithCapacity(schema, hint)
			for r := 0; r < n; r++ {
				row[0], row[1], row[2] = int64(r), int64(r%300), int64(r%5)<<40
				tbl.InsertInts(row...)
			}
			label := fmt.Sprintf("%d rows, hint %d", n, hint)
			nb, sealed := (n+BlockSize-1)/BlockSize, n/BlockSize
			if hint > 0 {
				sealed = nb
			}
			want := 0
			for c := range tbl.cols {
				col := &tbl.cols[c]
				if len(col.sealed) != sealed || len(col.tail) != n-min(n, sealed*BlockSize) || len(col.zones) != nb {
					t.Fatalf("%s, column %d: %d sealed blocks, %d tail rows, %d zones", label, c, len(col.sealed), len(col.tail), len(col.zones))
				}
				if hint > 0 && (cap(col.sealed) != nb || cap(col.zones) != nb || cap(col.tail) != 0) {
					t.Errorf("%s, column %d: directory %d, zones %d, tail %d: the reservation was outgrown or the tail kept",
						label, c, cap(col.sealed), cap(col.zones), cap(col.tail))
				}
				want += cap(col.sealed)*segmentBytes + cap(col.zones)*16 + cap(col.tail)*8
			}
			if hint > 0 && tbl.TailBytes() != 0 {
				t.Errorf("%s: %d bytes of tail", label, tbl.TailBytes())
			}
			// c0 is a row number (2 bytes a row), c1 cycles 0..299 (2), c2
			// holds five values 2^40 apart (a one-byte code and a
			// five-entry dictionary a block), the other eight are constant
			// (1).
			want += sealed*5*8 + min(n, sealed*BlockSize)*(2+2+1+8)
			if got := tbl.StorageBytes(); got != want {
				t.Errorf("%s: StorageBytes %d, layout adds up to %d", label, got, want)
			}
			if hint > 0 {
				t.Logf("%s: %.1f bytes of storage a row", label, float64(tbl.StorageBytes())/float64(n))
			}
		}
	}
}

// TestInsertAllocs holds Insert to its amortized storage growth: no
// per-row allocation (the encoded row goes through the table's scratch),
// so over blocks of rows the average rounds to zero.
func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tbl := NewTable(flowSchema())
	row := []any{int64(1 << 40), 80, int32(8080), "HTTP", int64(5000), 10}
	if n := testing.AllocsPerRun(3*BlockSize, func() {
		if err := tbl.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Insert allocates %v times per row", n)
	}

	// A row that fails to encode part-way leaves no trace, in the table or
	// in the row that follows it.
	rows := tbl.NumRows()
	if err := tbl.Insert(int64(7), 80, 80, 99, int64(1), 1); err == nil {
		t.Fatal("int into string column must fail")
	}
	if err := tbl.Insert(row...); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != rows+1 {
		t.Fatalf("%d rows after a failed and a good insert on %d", tbl.NumRows(), rows)
	}
	if ts := tbl.ColumnValues("ts"); ts[len(ts)-1] != 1<<40 {
		t.Fatalf("row after a failed insert stored ts %d", ts[len(ts)-1])
	}
}
