// Package relq is the per-endsystem relational engine beneath Seaweed. The
// paper assumes each endsystem runs a local DBMS (SQL Server 2005 in the
// original evaluation) capable of executing relational queries on its local
// data and exporting histograms on indexed columns; relq provides both
// natively: typed columnar tables, a parser and executor for the SQL subset
// Seaweed supports (single-table SELECT with standard aggregates and
// conjunctive comparison predicates, including NOW() arithmetic), exact
// execution, and histogram-based row-count estimation.
//
// Storage is columnar and block-structured: each column is a run of sealed
// BlockSize-row blocks, each stored as offsets from the block's minimum in
// the narrowest integer width that holds them or as one-byte codes into
// the block's own dictionary, plus one open full-width tail that rows are
// appended to (sealed early, at its own length, when a table reaches the
// row count it was created for). Every (column, block) pair carries a zone
// map — the min and max value in that block, maintained incrementally on
// insert. Execution is batch-at-a-time (see exec.go and kernels.go): zone
// maps skip whole blocks, and surviving blocks are evaluated into
// per-block selection bitmaps by kernels instantiated per element width.
//
// String values are stored hash-encoded: a string column holds the 63-bit
// FNV hash of each value. Equality predicates hash their literal, so
// histograms built on the hashed column transfer between endsystems without
// shipping dictionaries — exactly what Seaweed's replicated data summaries
// need. Range predicates on string columns are rejected at parse time.
package relq

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/histogram"
)

// Type is a column type.
type Type int

const (
	// TInt is a 64-bit signed integer column.
	TInt Type = iota
	// TString is a string column, stored hash-encoded.
	TString
)

// Column describes one table column. Indexed columns get histograms in the
// table's data summary (the paper replicates "histograms on indexed
// columns of the local database").
type Column struct {
	Name    string
	Type    Type
	Indexed bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Name    string // table name
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HashString returns the 63-bit FNV-1a code a string value is stored as.
func HashString(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64() &^ (1 << 63))
}

// BlockSize is the number of rows per storage block. Each block carries a
// per-column zone map (min/max) so predicate evaluation can skip it
// entirely when the zone proves no row can match. 2048 rows keeps a block's
// working set (one column segment, at most 16 kB) inside L1 while
// amortizing the per-block dispatch overhead across thousands of rows.
const BlockSize = 2048

// elem is the set of types a block's column segment is stored in.
type elem interface {
	uint8 | uint16 | uint32 | int64
}

// segment is one column's values over one block, stored as v - base.
// Exactly one slice is set, except in a dictionary block. A sealed block
// uses the narrowest unsigned type that holds its zone's span with base =
// the zone's minimum; a span of 2^32 or more keeps the values themselves
// (i64, base 0), as does the open tail, so the int64 extremes need no
// offset arithmetic to stay exact. A dictionary block (see encodeDict)
// sets both u8 and i64: u8 holds each row's code, i64 the block's distinct
// values in ascending order, and base is 0.
type segment struct {
	base int64
	u8   []uint8
	u16  []uint16
	u32  []uint32
	i64  []int64
}

// segmentBytes is the size of a segment in the block directory: the base
// and four slice headers, on a 64-bit host.
const segmentBytes = 8 + 4*24

// zone bounds the values of one column in one block.
type zone struct{ min, max int64 }

// column is one column's storage: the sealed blocks, the rows past the
// last of them, and the zone maps of both.
type column struct {
	sealed []segment
	// tail holds the rows of the open block at full width. It grows to at
	// most BlockSize rows, is encoded into sealed when it gets there, and
	// is then reused for the next block.
	tail []int64
	// zones[b] bounds block b. Zones are maintained incrementally on
	// insert — a fresh block's zone starts at the bounds of its first
	// stretch of rows and widens with each stretch after it — so the open
	// block's zone is valid at all times and a sealed block's is what
	// chose its width.
	zones []zone
}

// block returns the segment of block b: a sealed one, or the tail, which
// it writes to *open. A pointer, since a segment is 104 bytes to copy.
func (c *column) block(b int, open *segment) *segment {
	if b < len(c.sealed) {
		return &c.sealed[b]
	}
	*open = segment{i64: c.tail}
	return open
}

// dict returns a dictionary block's sorted values, or nil.
func (g *segment) dict() []int64 {
	if g.u8 != nil {
		return g.i64
	}
	return nil
}

// seal encodes the tail into a sealed segment of the narrowest width its
// zone allows, or into dictionary codes when a 4- or 8-byte block holds
// few enough distinct values for them to be smaller, and empties the tail
// for reuse.
func (c *column) seal() {
	var g segment
	z := c.zones[len(c.zones)-1]
	switch span := uint64(z.max) - uint64(z.min); {
	case span < 1<<8:
		g = segment{base: z.min, u8: narrow[uint8](c.tail, z.min)}
	case span < 1<<16:
		g = segment{base: z.min, u16: narrow[uint16](c.tail, z.min)}
	case span < 1<<32:
		if g = encodeDict(c.tail, 4); g.u8 == nil {
			g = segment{base: z.min, u32: narrow[uint32](c.tail, z.min)}
		}
	default:
		if g = encodeDict(c.tail, 8); g.u8 == nil {
			g = segment{i64: slices.Clone(c.tail)}
		}
	}
	c.sealed = append(c.sealed, g)
	c.tail = c.tail[:0]
}

// reopen turns the last sealed block, which holds n < BlockSize rows (a
// table sealed it on reaching its row hint), back into the tail.
func (c *column) reopen(n int) {
	last := len(c.sealed) - 1
	c.tail = c.sealed[last].appendTo(make([]int64, 0, min(2*n, BlockSize)))
	c.sealed = c.sealed[:last]
}

// maxDict is the most distinct values a dictionary block holds: its codes
// are one byte.
const maxDict = 1 << 8

// encodeDict's hash set has dictSlots = 2^dictBits slots, twice maxDict,
// so that it is at most half full and no probe sequence is long.
const (
	dictBits  = 9
	dictSlots = 1 << dictBits
)

// encodeDict stores vals as one-byte codes into their sorted distinct
// values if that takes fewer bytes than width bytes a row, and returns the
// zero segment otherwise. The distinct values are collected in a dictSet
// on the stack, which gives up at the first value past what the codes can
// index or the size allows: a block of thousands of distinct values costs
// a few hundred probes and allocates nothing.
func encodeDict(vals []int64, width int) segment {
	// n codes and d values beat width bytes a row iff n + 8d < width·n.
	limit := min(maxDict, ((width-1)*len(vals)-1)/8)
	var set dictSet
	d := 0
	for _, v := range vals {
		if h := set.slot(v); set.slots[h] == 0 {
			if d == limit {
				return segment{}
			}
			set.distinct[d] = v
			d++
			set.slots[h] = uint16(d)
		}
	}
	dict := slices.Clone(set.distinct[:d])
	slices.Sort(dict)
	var code [maxDict]uint8 // by index into set.distinct
	for j, v := range set.distinct[:d] {
		k, _ := slices.BinarySearch(dict, v)
		code[j] = uint8(k)
	}
	out := make([]uint8, len(vals))
	for i, v := range vals {
		out[i] = code[set.slots[set.slot(v)]-1]
	}
	return segment{u8: out, i64: dict}
}

// dictSet is encodeDict's hash set: open addressing with linear probing
// over slots that index distinct.
type dictSet struct {
	distinct [maxDict]int64    // in order of first appearance
	slots    [dictSlots]uint16 // 0: empty, else 1 + an index into distinct
}

// slot returns the slot that holds v, or the empty one where it belongs.
func (s *dictSet) slot(v int64) uint64 {
	h := uint64(v) * 0x9e3779b97f4a7c15 >> (64 - dictBits)
	for s.slots[h] != 0 && s.distinct[s.slots[h]-1] != v {
		h = (h + 1) % dictSlots
	}
	return h
}

// narrow returns vals as offsets from base, which must all fit E.
func narrow[E uint8 | uint16 | uint32](vals []int64, base int64) []E {
	out := make([]E, len(vals))
	for i, v := range vals {
		out[i] = E(v - base)
	}
	return out
}

// at returns the value of row i of the segment.
func (g *segment) at(i int) int64 {
	switch {
	case g.u8 != nil:
		if g.i64 != nil { // dictionary codes
			return g.i64[g.u8[i]]
		}
		return g.base + int64(g.u8[i])
	case g.u16 != nil:
		return g.base + int64(g.u16[i])
	case g.u32 != nil:
		return g.base + int64(g.u32[i])
	}
	return g.i64[i]
}

// appendTo appends the segment's values to dst.
func (g *segment) appendTo(dst []int64) []int64 {
	switch {
	case g.dict() != nil:
		for _, code := range g.u8 {
			dst = append(dst, g.i64[code])
		}
		return dst
	case g.u8 != nil:
		return appendWide(dst, g.u8, g.base)
	case g.u16 != nil:
		return appendWide(dst, g.u16, g.base)
	case g.u32 != nil:
		return appendWide(dst, g.u32, g.base)
	}
	return append(dst, g.i64...)
}

func appendWide[E uint8 | uint16 | uint32](dst []int64, col []E, base int64) []int64 {
	for _, v := range col {
		dst = append(dst, base+int64(v))
	}
	return dst
}

// bytes is the size of the segment's stored values (a dictionary block's
// codes and dictionary).
func (g *segment) bytes() int {
	return len(g.u8) + 2*len(g.u16) + 4*len(g.u32) + 8*len(g.i64)
}

// Table is a columnar table holding one endsystem's horizontal partition of
// a dataset. Tables are not safe for concurrent use; in the simulation each
// table belongs to exactly one endsystem.
type Table struct {
	schema Schema
	cols   []column
	rows   int

	// hint is the row hint of a table told at least a block's rows (0
	// otherwise): the row count at which the sealed blocks are compacted
	// and, when sealShort, the last block is sealed at its own length and
	// the tail released — sealShort when doing so lowers StorageBytes.
	hint      int
	sealShort bool

	// row is Insert's scratch: the encoded form of the row being inserted.
	row []int64

	// zonesOff disables zone-map pruning at execution time (construction
	// continues, so re-enabling needs no rebuild). Used by benchmarks and
	// tests to isolate the kernels' contribution from pruning's.
	zonesOff bool

	// stats holds the executor's observability counters (nil handles are
	// no-ops; see SetExecStats).
	stats ExecStats

	// summary is the most recent BuildSummary result: the one the
	// endsystem replicates, and what the executor orders conjuncts by.
	summary *Summary
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	return NewTableWithCapacity(schema, 0)
}

// NewTableWithCapacity creates an empty table that reserves what rowCap
// rows will occupy before any of them is encoded: per column, a tail of
// min(rowCap, BlockSize) rows and the block directory and zone maps of
// rowCap rows. Sealed blocks are allocated at their encoded width when
// they fill, so a table never holds capacity for rows it was not told
// about — a 12-row table reserves 12 rows, not a block. Bulk loaders that
// know their row count up front — anemone generation in particular — use
// this to skip the tail's regrowth on the way to its first block.
//
// A table of at least one block that reaches rowCap rows compacts its
// full blocks (compact). It also seals its last, partial block at its own
// length and releases the tail, as long as that block at full width and
// its directory entry take less than the tail's capacity (a last block of
// 2,035 rows or more stays open); the next insert reopens it. Smaller
// tables keep their tail: a directory entry costs more than their rows.
func NewTableWithCapacity(schema Schema, rowCap int) *Table {
	t := &Table{schema: schema, cols: make([]column, len(schema.Columns))}
	if rowCap <= 0 {
		return t
	}
	nb := (rowCap + BlockSize - 1) / BlockSize
	tailCap := min(rowCap, BlockSize)
	if rowCap >= BlockSize {
		t.hint = rowCap
	}
	if t.sealShort = segmentBytes+8*(rowCap%BlockSize) < 8*tailCap; !t.sealShort {
		nb-- // the last block is open when the hint is reached
	}
	for i := range t.cols {
		t.cols[i] = column{
			sealed: make([]segment, 0, nb),
			tail:   make([]int64, 0, tailCap),
			zones:  make([]zone, 0, (rowCap+BlockSize-1)/BlockSize),
		}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return &t.schema }

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int { return t.rows }

// NumBlocks returns the number of storage blocks (including the trailing
// partial block, if any).
func (t *Table) NumBlocks() int { return (t.rows + BlockSize - 1) / BlockSize }

// StorageBytes returns the bytes the table's column storage occupies:
// sealed blocks at their encoded width, the tail's capacity, the block
// directory and the zone maps. Schema and summary are not column storage
// and are not counted.
func (t *Table) StorageBytes() int {
	n := 0
	for i := range t.cols {
		c := &t.cols[i]
		for b := range c.sealed {
			n += c.sealed[b].bytes()
		}
		n += cap(c.sealed)*segmentBytes + 8*cap(c.tail) + 16*cap(c.zones)
	}
	return n
}

// TailBytes returns the capacity of the open tails, in bytes: the part of
// StorageBytes that holds rows at full width. It is 0 once a table of a
// block or more reaches the row count it was created for.
func (t *Table) TailBytes() int {
	n := 0
	for i := range t.cols {
		n += 8 * cap(t.cols[i].tail)
	}
	return n
}

// SetZoneMaps enables or disables zone-map block pruning at execution
// time. Zone maps are still maintained on insert either way, so pruning
// can be toggled without rebuilding the table. Results are identical in
// both modes; only blocks_pruned / rows_scanned accounting and speed
// differ.
func (t *Table) SetZoneMaps(enabled bool) { t.zonesOff = !enabled }

// Insert appends one row. Values must match the schema's arity and types:
// int/int64/time-like integers for TInt columns, string for TString
// columns. The row is encoded in full before any column is touched, so a
// type error leaves the table unchanged.
func (t *Table) Insert(values ...any) error {
	if len(values) != len(t.schema.Columns) {
		return t.arityError(len(values))
	}
	if t.row == nil {
		t.row = make([]int64, len(values))
	}
	for i, v := range values {
		e, err := encodeValue(t.schema.Columns[i], v)
		if err != nil {
			return err
		}
		t.row[i] = e
	}
	return t.InsertInts(t.row...)
}

// InsertInts appends one row of already-encoded column values, avoiding
// the boxing of Insert. The caller must supply exactly one int64 per
// column, with string columns already hash-encoded via HashString. It is
// AppendColumns' path for a stretch of one row, its values appended as
// they are rather than sliced into columns.
func (t *Table) InsertInts(values ...int64) error {
	if len(values) != len(t.schema.Columns) {
		return t.arityError(len(values))
	}
	_, fresh := t.open(1)
	for i, v := range values {
		c := &t.cols[i]
		c.fold(v, v, fresh)
		c.grow(1)
		c.tail = append(c.tail, v)
	}
	t.close(1)
	return nil
}

// AppendColumns appends rows given column by column: cols[i] holds column
// i's values, encoded as InsertInts takes them, and every column is as
// long. It appends them a stretch at a time, each stretch as many rows as
// fit before the open block seals: per column one min/max pass for the
// zone and one copy into the tail. The table is the one those rows
// inserted one at a time would build.
func (t *Table) AppendColumns(cols [][]int64) error {
	if len(cols) != len(t.schema.Columns) {
		return t.arityError(len(cols))
	}
	n := 0
	for i, c := range cols {
		if n = len(cols[0]); len(c) != n {
			return fmt.Errorf("relq: table %s: column %d holds %d values, column 0 %d", t.schema.Name, i, len(c), n)
		}
	}
	for done := 0; done < n; {
		k, fresh := t.open(n - done)
		for i := range t.cols {
			t.cols[i].extend(cols[i][done:done+k], fresh)
		}
		t.close(k)
		done += k
	}
	return nil
}

func (t *Table) arityError(n int) error {
	return fmt.Errorf("relq: table %s: %d values for %d columns", t.schema.Name, n, len(t.schema.Columns))
}

// open readies the open block for up to n more rows, reopening the last
// block if the table sealed it short at its hint. It returns how many of
// them the block takes before it seals or the table reaches its hint, and
// whether they start it.
func (t *Table) open(n int) (k int, fresh bool) {
	held := t.rows % BlockSize
	if t.rows == t.hint && t.sealShort && held != 0 {
		for i := range t.cols {
			t.cols[i].reopen(held)
		}
	}
	if k = min(n, BlockSize-held); t.rows < t.hint {
		k = min(k, t.hint-t.rows)
	}
	return k, held == 0
}

// close counts k appended rows and seals the open block if they filled it.
// At the hint the sealed blocks are compacted, after the open block is
// sealed short and the tail released if the table does that.
func (t *Table) close(k int) {
	t.rows += k
	atHint := t.rows == t.hint
	if t.rows%BlockSize == 0 || atHint && t.sealShort {
		for i := range t.cols {
			if t.cols[i].seal(); atHint {
				t.cols[i].tail = nil
			}
		}
	}
	if atHint {
		t.compact()
	}
}

// compact copies the full sealed blocks back to back into one arena per
// element width, column by column and each column's blocks in order, so
// that a scan of a column streams through memory instead of starting at a
// fresh allocation every block. Each block placed becomes a subslice of
// its arena capped at its own length, so nothing appended to one reaches
// the next. Short blocks and dictionaries stay where they are, as do the
// last few blocks of a width that would not fill an arena's last page;
// blocks sealed later, and the one reopen takes back, are ordinary slices.
func (t *Table) compact() {
	var n8, n16, n32, n64 int
	for i := range t.cols {
		for _, g := range t.cols[i].sealed {
			n8, n16 = n8+len(g.u8)/BlockSize, n16+len(g.u16)/BlockSize
			n32, n64 = n32+len(g.u32)/BlockSize, n64+len(g.i64)/BlockSize
		}
	}
	a8, a16, a32, a64 := reserve[uint8](n8), reserve[uint16](n16), reserve[uint32](n32), reserve[int64](n64)
	for i := range t.cols {
		for b := range t.cols[i].sealed {
			g := &t.cols[i].sealed[b]
			g.u8, a8 = place(a8, g.u8)
			g.u16, a16 = place(a16, g.u16)
			g.u32, a32 = place(a32, g.u32)
			g.i64, a64 = place(a64, g.i64)
		}
	}
}

// pageBytes is the unit in which the Go heap allocates an object of more
// than 32 KB: an arena is a whole number of them, so it wastes none.
const pageBytes = 8 << 10

// reserve returns an empty arena for as many of n full blocks of E as
// fill whole pages.
func reserve[E elem](n int) []E {
	perPage := max(1, pageBytes/(BlockSize*bits.Len64(uint64(^E(0)))/8))
	return make([]E, 0, (n-n%perPage)*BlockSize)
}

// place copies s to the end of arena a if s is a full block and a has
// room for it, and returns where s lies now and the arena.
func place[E elem](a, s []E) ([]E, []E) {
	if len(s) != BlockSize || len(a) == cap(a) {
		return s, a
	}
	n := len(a)
	a = append(a, s...)
	return a[n:len(a):len(a)], a
}

// minTailCap is the tail's first capacity when no hint reserved one.
const minTailCap = 16

// extend appends vals, which fit the open block, to the tail and folds
// them into the block's zone, which they open when fresh.
func (c *column) extend(vals []int64, fresh bool) {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	c.fold(lo, hi, fresh)
	c.grow(len(vals))
	c.tail = append(c.tail, vals...)
}

// fold widens the open block's zone to [lo, hi], opening it when fresh.
func (c *column) fold(lo, hi int64, fresh bool) {
	if fresh {
		c.zones = append(c.zones, zone{lo, hi})
	}
	z := &c.zones[len(c.zones)-1]
	z.min, z.max = min(z.min, lo), max(z.max, hi)
}

// grow makes room in the tail for k more rows by doubling it, never past
// BlockSize, so that its capacity does not depend on how the rows were
// split into stretches.
func (c *column) grow(k int) {
	if size := cap(c.tail); len(c.tail)+k > size {
		for size < len(c.tail)+k {
			size = min(max(2*size, minTailCap), BlockSize)
		}
		c.tail = append(make([]int64, 0, size), c.tail...)
	}
}

// value returns the value of one column in one row: the scalar read the
// row-at-a-time oracle is built on.
func (t *Table) value(col, row int) int64 {
	c := &t.cols[col]
	if b := row / BlockSize; b < len(c.sealed) {
		return c.sealed[b].at(row % BlockSize)
	}
	return c.tail[row%BlockSize]
}

// appendColumn appends every value of column col, in row order, to dst.
func (t *Table) appendColumn(dst []int64, col int) []int64 {
	c := &t.cols[col]
	for b := range c.sealed {
		dst = c.sealed[b].appendTo(dst)
	}
	return append(dst, c.tail...)
}

func encodeValue(col Column, v any) (int64, error) {
	switch col.Type {
	case TInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		default:
			return 0, fmt.Errorf("relq: column %s wants an integer, got %T", col.Name, v)
		}
	case TString:
		s, ok := v.(string)
		if !ok {
			return 0, fmt.Errorf("relq: column %s wants a string, got %T", col.Name, v)
		}
		return HashString(s), nil
	default:
		return 0, fmt.Errorf("relq: column %s has unknown type", col.Name)
	}
}

// ColumnValues returns one column's values decoded to int64, in row order
// (string columns come back as their hash codes). It exists for statistics
// and experiment code that builds alternative summaries over the same
// data; callers own the slice and may reorder it freely.
func (t *Table) ColumnValues(name string) []int64 {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return t.appendColumn(make([]int64, 0, t.rows), i)
}

// HistogramBuckets is the default bucket budget for per-column histograms.
// With 64 equi-depth buckets a histogram serializes to roughly 1–1.3 kB,
// matching the paper's h = 6,473 bytes across the five indexed Anemone
// columns.
const HistogramBuckets = 64

// maxFrequencyDistinct is the distinct-value threshold below which an
// indexed column gets an exact frequency histogram instead of an equi-depth
// one.
const maxFrequencyDistinct = 64

// BuildSummary builds the table's data summary: one histogram per indexed
// column, in ascending name order. Low-cardinality columns get exact
// frequency histograms; numeric columns get equi-depth histograms. The
// summary is also retained on the table (see Summary), and the executor
// orders conjuncts by its estimated selectivities.
func (t *Table) BuildSummary() *Summary {
	n := 0
	for _, col := range t.schema.Columns {
		if col.Indexed {
			n++
		}
	}
	s := &Summary{
		Table:     t.schema.Name,
		TotalRows: int64(t.rows),
		Columns:   make([]ColumnSummary, 0, n),
	}
	// One decoded copy and one radix-sort buffer serve every indexed column
	// in turn: the build counts its input, sorts it in place if it has
	// too many distinct values, and keeps neither, and the stored blocks
	// are not []int64 to begin with. The buffer is allocated by the first
	// column long enough to radix-sort.
	vals := make([]int64, 0, t.rows)
	var scratch []int64
	for i, col := range t.schema.Columns {
		// A name the schema repeats is summarized once, for the column
		// queries bind to: its first.
		if !col.Indexed || t.schema.ColumnIndex(col.Name) != i {
			continue
		}
		vals = t.appendColumn(vals[:0], i)
		h := histogram.Build(vals, &scratch, maxFrequencyDistinct, HistogramBuckets)
		s.Columns = append(s.Columns, ColumnSummary{Name: col.Name, Histogram: h})
	}
	slices.SortFunc(s.Columns, func(a, b ColumnSummary) int { return strings.Compare(a.Name, b.Name) })
	t.summary = s
	return s
}

// Summary returns the summary BuildSummary last built, or nil if it never
// ran. Rows inserted since are not in it.
func (t *Table) Summary() *Summary { return t.summary }
