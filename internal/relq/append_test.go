package relq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// appendColumns returns n rows of the width-case schema (a row number and
// one column per widthCases entry, so blocks seal at every width and as
// dictionary codes), column by column.
func appendColumns(n int) (Schema, [][]int64) {
	w := newWidthsTable(0)
	cols := make([][]int64, len(w.schema.Columns))
	for r := 0; r < n; r++ {
		cols[0] = append(cols[0], int64(r))
		for i, c := range widthCases {
			cols[i+1] = append(cols[i+1], c.at(w.rng, r))
		}
	}
	return w.schema, cols
}

// insertRows builds a table for hint rows by one-row inserts of cols.
func insertRows(t testing.TB, schema Schema, hint int, cols [][]int64) *Table {
	tbl := NewTableWithCapacity(schema, hint)
	row := make([]int64, len(cols))
	for r := range cols[0] {
		for c := range cols {
			row[c] = cols[c][r]
		}
		if err := tbl.InsertInts(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// appendChunks builds a table for hint rows by AppendColumns calls of the
// given sizes in turn, cycling, until cols is used up.
func appendChunks(t testing.TB, schema Schema, hint int, cols [][]int64, sizes []int) *Table {
	tbl := NewTableWithCapacity(schema, hint)
	part := make([][]int64, len(cols))
	for lo, k := 0, 0; lo < len(cols[0]); k++ {
		hi := min(lo+sizes[k%len(sizes)], len(cols[0]))
		for c := range cols {
			part[c] = cols[c][lo:hi]
		}
		if err := tbl.AppendColumns(part); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	return tbl
}

// checkLayout holds tbl to the rows in cols on its own: every value reads
// back through ColumnValues and value, every block but the open one is
// sealed, and each zone is the minimum and maximum of its block's rows.
func checkLayout(t testing.TB, label string, tbl *Table, cols [][]int64) {
	t.Helper()
	n := len(cols[0])
	if tbl.NumRows() != n {
		t.Fatalf("%s: %d rows, appended %d", label, tbl.NumRows(), n)
	}
	for c, col := range tbl.schema.Columns {
		if got := tbl.ColumnValues(col.Name); !slices.Equal(got, cols[c]) {
			t.Fatalf("%s: column %s does not read back as appended", label, col.Name)
		}
		for r, v := range cols[c] {
			if got := tbl.value(c, r); got != v {
				t.Fatalf("%s: column %s row %d reads %d, appended %d", label, col.Name, r, got, v)
			}
		}
		s := &tbl.cols[c]
		if open := min(len(s.tail), 1); len(s.zones) != tbl.NumBlocks() || len(s.sealed)+open != tbl.NumBlocks() {
			t.Fatalf("%s: column %s has %d zones, %d sealed blocks and %d tail rows for %d blocks",
				label, col.Name, len(s.zones), len(s.sealed), len(s.tail), tbl.NumBlocks())
		}
		for b, z := range s.zones {
			block := cols[c][b*BlockSize : min((b+1)*BlockSize, n)]
			if want := (zone{slices.Min(block), slices.Max(block)}); z != want {
				t.Fatalf("%s: column %s block %d has zone %v, its rows span %v", label, col.Name, b, z, want)
			}
		}
	}
	checkArena(t, label, tbl)
}

// checkArena holds a table that reached its row hint to the layout
// compact left: the full blocks sealed by then lie back to back per
// element width, column by column and in block order, each capped at its
// own length — all of them but the last few of a width that would not
// fill a page: 4 blocks of one byte, 2 of two, none of four or eight. It
// returns how many blocks it found in place.
func checkArena(t testing.TB, label string, tbl *Table) (placed int) {
	t.Helper()
	if tbl.hint == 0 || tbl.rows < tbl.hint {
		return 0
	}
	type block struct {
		name string
		p    uintptr // the first value's address
		len  int
		cap  int
	}
	var full [4][]block // per element width: 1, 2, 4 and 8 bytes
	for c := range tbl.cols {
		for b, g := range tbl.cols[c].sealed[:tbl.hint/BlockSize] {
			name := fmt.Sprintf("column %d block %d", c, b)
			for k, seg := range []block{
				{name, uintptr(unsafe.Pointer(unsafe.SliceData(g.u8))), len(g.u8), cap(g.u8)},
				{name, uintptr(unsafe.Pointer(unsafe.SliceData(g.u16))), len(g.u16), cap(g.u16)},
				{name, uintptr(unsafe.Pointer(unsafe.SliceData(g.u32))), len(g.u32), cap(g.u32)},
				{name, uintptr(unsafe.Pointer(unsafe.SliceData(g.i64))), len(g.i64), cap(g.i64)},
			} {
				if seg.len == BlockSize {
					full[k] = append(full[k], seg)
				}
			}
		}
	}
	for k, blocks := range full {
		width, perPage := 1<<k, []int{4, 2, 1, 1}[k]
		inArena := blocks[:len(blocks)-len(blocks)%perPage]
		for i, seg := range inArena {
			if seg.cap != seg.len {
				t.Fatalf("%s: %s's %d-byte values have capacity %d for %d", label, seg.name, width, seg.cap, seg.len)
			}
			if i > 0 && seg.p != inArena[i-1].p+uintptr(BlockSize*width) {
				t.Fatalf("%s: %s's %d-byte values do not follow %s's", label, seg.name, width, inArena[i-1].name)
			}
		}
		placed += len(inArena)
	}
	return placed
}

// TestHintCompactsWhateverTheLastBlock: a table reaches its layout at its
// row hint whatever the last block holds there. At 2,035 to 2,047 rows,
// sealing that block at its own length would cost more than the tail it
// releases, so it stays open in the tail, and the full blocks before it
// are compacted all the same; at fewer it is sealed short. Built by
// one-row inserts and by appends in stretches that straddle the blocks.
func TestHintCompactsWhateverTheLastBlock(t *testing.T) {
	for _, rest := range []int{0, 1, 2034, 2035, 2036, 2037, 2038, 2039, 2040, 2041, 2042, 2043, 2044, 2045, 2046, 2047} {
		n := 8*BlockSize + rest
		schema, cols := appendColumns(n)
		for build, tbl := range map[string]*Table{
			"one-row inserts": insertRows(t, schema, n, cols),
			"stretches":       appendChunks(t, schema, n, cols, []int{BlockSize - 1, BlockSize + 1}),
		} {
			label := fmt.Sprintf("%d rows, %d in the last block, %s", n, rest, build)
			checkLayout(t, label, tbl, cols)
			if placed := checkArena(t, label, tbl); placed == 0 {
				t.Fatalf("%s: no block was compacted at the hint", label)
			}
			open := 0
			if rest >= 2035 {
				open = rest
			}
			if got := len(tbl.cols[0].tail); got != open {
				t.Fatalf("%s: %d rows open in the tail, want %d", label, got, open)
			}
		}
	}
}

// checkSameTable fails unless got holds the layout want does: the same
// zones, sealed blocks in the same encodings (width or dictionary) and
// values, the same tail and the same storage, tail capacity included.
func checkSameTable(t testing.TB, label string, got, want *Table) {
	t.Helper()
	for c := range want.cols {
		g, w := &got.cols[c], &want.cols[c]
		if !slices.Equal(g.zones, w.zones) || !reflect.DeepEqual(g.sealed, w.sealed) ||
			!slices.Equal(g.tail, w.tail) || cap(g.tail) != cap(w.tail) {
			t.Fatalf("%s: column %d differs from one-row inserts: %d/%d sealed blocks, tail %d of %d / %d of %d",
				label, c, len(g.sealed), len(w.sealed), len(g.tail), cap(g.tail), len(w.tail), cap(w.tail))
		}
	}
	if got.StorageBytes() != want.StorageBytes() || got.TailBytes() != want.TailBytes() {
		t.Fatalf("%s: StorageBytes %d, TailBytes %d; one-row inserts %d, %d",
			label, got.StorageBytes(), got.TailBytes(), want.StorageBytes(), want.TailBytes())
	}
}

// appendQueries run on every width case's column: a full scan, a range
// and an inequality a zone decides, and an equality on the row number.
var appendQueries = []string{
	"SELECT SUM(w%[1]d) FROM T",
	"SELECT COUNT(*) FROM T WHERE w%[1]d >= NOW() + 0 AND r < 20000",
	"SELECT MAX(w%[1]d) FROM T WHERE w%[1]d <> NOW() + 0",
	"SELECT MIN(w%[1]d) FROM T WHERE r = 2048",
}

// checkAppendQueries runs appendQueries on tbl, zone maps on and off, against
// the oracle and against the same plans on the one-row table.
func checkAppendQueries(t *testing.T, label string, tbl, rows *Table) {
	t.Helper()
	defer tbl.SetZoneMaps(true)
	for i, c := range widthCases {
		for _, sql := range appendQueries {
			p, err := tbl.Bind(MustParse(fmt.Sprintf(sql, i)))
			if err != nil {
				t.Fatal(err)
			}
			for _, zones := range []bool{true, false} {
				tbl.SetZoneMaps(zones)
				assertPlanMatchesOracle(t, tbl, p, c.min, fmt.Sprintf("%s, %s zones=%v: %s", label, c.name, zones, sql))
				if got, want := p.Execute(tbl, c.min), p.Execute(rows, c.min); got != want {
					t.Fatalf("%s, %s: %s gives %+v, on one-row inserts %+v", label, c.name, sql, got, want)
				}
			}
		}
	}
}

// TestAppendColumnsMatchesRows: AppendColumns builds the table one-row
// inserts of the same rows build — values, zones, block encodings,
// storage and query results — at 0, 1, 12, 2,048, 2,049 and 30,000 rows,
// without a row hint, at it and short of it (so that later appends reopen
// a block sealed at the hint), in stretches of one row, of 2,047, 2,048
// and 2,049 in turn, of random lengths and of the whole table.
func TestAppendColumnsMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{0, 1, 12, BlockSize, BlockSize + 1, 30_000} {
		schema, cols := appendColumns(n)
		random := make([]int, 16)
		for i := range random {
			random[i] = 1 + rng.Intn(3*BlockSize)
		}
		for _, hint := range []int{0, n, n / 2, 2*BlockSize + 300} {
			rows := insertRows(t, schema, hint, cols)
			checkLayout(t, fmt.Sprintf("%d rows, hint %d, one-row inserts", n, hint), rows, cols)
			for name, sizes := range map[string][]int{
				"one row":          {1},
				"2047/2048/2049":   {BlockSize - 1, BlockSize, BlockSize + 1},
				"random stretches": random,
				"whole table":      {max(n, 1)},
			} {
				label := fmt.Sprintf("%d rows, hint %d, %s", n, hint, name)
				tbl := appendChunks(t, schema, hint, cols, sizes)
				checkLayout(t, label, tbl, cols)
				checkSameTable(t, label, tbl, rows)
				if n > 0 && (name == "whole table" || n < BlockSize) {
					checkAppendQueries(t, label, tbl, rows)
				}
			}
		}
	}
}

// AppendColumns checks its input before it touches the table.
func TestAppendColumnsRejectsRagged(t *testing.T) {
	schema, cols := appendColumns(3)
	tbl := NewTable(schema)
	cols[2] = cols[2][:2]
	if err := tbl.AppendColumns(cols); err == nil || tbl.NumRows() != 0 {
		t.Fatalf("ragged columns: err %v, %d rows", err, tbl.NumRows())
	}
	if err := tbl.AppendColumns(cols[:1]); err == nil || tbl.NumRows() != 0 {
		t.Fatalf("one column of %d: err %v, %d rows", len(schema.Columns), err, tbl.NumRows())
	}
}

// FuzzAppendColumns: random rows, split into random stretches and
// appended to a table with or without a row hint, build the table one-row
// inserts build, and hold their values and zones. Every 8 bytes of b are
// a palette value; a splitmix64 stream seeded with chunks picks each
// row's values from it — column a as they are, b spread by the stream's
// next draw into every width, c plus the row number — and the stretch
// lengths. rows and hint are taken mod 3·BlockSize+1.
func FuzzAppendColumns(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(le(1, math.MaxInt64), uint16(4500), uint16(0), uint64(1))
	f.Add(le(80, 443, 53, 445), uint16(2049), uint16(2049), uint64(7))
	f.Add(le(math.MinInt64, -1, 0), uint16(5000), uint16(2*BlockSize+300), uint64(2048))
	f.Add(le(7), uint16(12), uint16(12), uint64(0))
	schema := Schema{Name: "T", Columns: []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TInt}, {Name: "c", Type: TInt}}}
	f.Fuzz(func(t *testing.T, b []byte, rows, hint uint16, chunks uint64) {
		palette := []int64{0}
		for ; len(b) >= 8 && len(palette) <= maxDict; b = b[8:] {
			palette = append(palette, int64(binary.LittleEndian.Uint64(b)))
		}
		n, x := int(rows)%(3*BlockSize+1), chunks
		cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
		for r := range n {
			for c := range cols {
				x = splitmix64(x)
				cols[c][r] = palette[x%uint64(len(palette))]
			}
			x = splitmix64(x)
			cols[1][r] += int64(x >> (chunks % 64))
			cols[2][r] += int64(r)
		}
		var sizes []int
		for len(sizes) < 8 {
			x = splitmix64(x)
			sizes = append(sizes, 1+int(x%[]uint64{1, 7, BlockSize + 1, 3 * BlockSize}[x>>62]))
		}
		h := int(hint) % (3*BlockSize + 1)
		want := insertRows(t, schema, h, cols)
		got := appendChunks(t, schema, h, cols, sizes)
		checkLayout(t, "appended", got, cols)
		checkSameTable(t, "appended", got, want)
	})
}
