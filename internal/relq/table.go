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
// the narrowest integer width that holds them, plus one open full-width
// tail that rows are appended to. Every (column, block) pair carries a zone
// map — the min and max value in that block, maintained incrementally on
// insert. Execution is batch-at-a-time (see exec.go and kernels.go): zone
// maps skip whole blocks, and surviving blocks are evaluated with
// selection-vector kernels instantiated per element width.
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
	"slices"

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
// Exactly one slice is set. A sealed block uses the narrowest unsigned
// type that holds its zone's span with base = the zone's minimum; a span
// of 2^32 or more keeps the values themselves (i64, base 0), as does the
// open tail, so the int64 extremes need no offset arithmetic to stay
// exact.
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
	// insert — a fresh block's zone starts at its first row's value and
	// widens as rows arrive — so the open block's zone is valid at all
	// times and a sealed block's is what chose its width.
	zones []zone
}

// block returns the segment of block b: a sealed one, or the tail.
func (c *column) block(b int) segment {
	if b < len(c.sealed) {
		return c.sealed[b]
	}
	return segment{i64: c.tail}
}

// seal encodes a full tail into a sealed segment of the narrowest width
// its zone allows and empties the tail for reuse.
func (c *column) seal() {
	var g segment
	z := c.zones[len(c.zones)-1]
	switch span := uint64(z.max) - uint64(z.min); {
	case span < 1<<8:
		g = segment{base: z.min, u8: narrow[uint8](c.tail, z.min)}
	case span < 1<<16:
		g = segment{base: z.min, u16: narrow[uint16](c.tail, z.min)}
	case span < 1<<32:
		g = segment{base: z.min, u32: narrow[uint32](c.tail, z.min)}
	default:
		g = segment{i64: slices.Clone(c.tail)}
	}
	c.sealed = append(c.sealed, g)
	c.tail = c.tail[:0]
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

// bytes is the size of the segment's stored values.
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

	// row is Insert's scratch: the encoded form of the row being inserted.
	row []int64

	// zonesOff disables zone-map pruning at execution time (construction
	// continues, so re-enabling needs no rebuild). Used by benchmarks and
	// tests to isolate the kernels' contribution from pruning's.
	zonesOff bool

	// stats holds the executor's observability counters (nil handles are
	// no-ops; see SetExecStats).
	stats ExecStats

	// lastSummary is the most recent BuildSummary result, kept so the
	// executor can order conjuncts by estimated selectivity without a
	// side channel (the node already rebuilds the summary whenever its
	// data changes).
	lastSummary *TableSummary

	// plans caches bound plans keyed by query identity (see plancache.go).
	plans planCache
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
func NewTableWithCapacity(schema Schema, rowCap int) *Table {
	t := &Table{schema: schema, cols: make([]column, len(schema.Columns))}
	if rowCap > 0 {
		for i := range t.cols {
			t.cols[i] = column{
				sealed: make([]segment, 0, rowCap/BlockSize),
				tail:   make([]int64, 0, min(rowCap, BlockSize)),
				zones:  make([]zone, 0, (rowCap+BlockSize-1)/BlockSize),
			}
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
// directory and the zone maps. Schema, plan cache and summary are not
// column storage and are not counted.
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

// SetZoneMaps enables or disables zone-map block pruning at execution
// time. Zone maps are still maintained on insert either way, so pruning
// can be toggled without rebuilding the table. Results are identical in
// both modes; only blocks_pruned / rows_scanned accounting and speed
// differ.
func (t *Table) SetZoneMaps(enabled bool) { t.zonesOff = !enabled }

// ZoneMapsEnabled reports whether zone-map pruning is in effect.
func (t *Table) ZoneMapsEnabled() bool { return !t.zonesOff }

// Insert appends one row. Values must match the schema's arity and types:
// int/int64/time-like integers for TInt columns, string for TString
// columns. The row is encoded in full before any column is touched, so a
// type error leaves the table unchanged.
func (t *Table) Insert(values ...any) error {
	if len(values) != len(t.schema.Columns) {
		return fmt.Errorf("relq: table %s: %d values for %d columns",
			t.schema.Name, len(values), len(t.schema.Columns))
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
	t.appendRow(t.row)
	return nil
}

// InsertInts appends one row of already-encoded column values, avoiding
// the boxing of Insert. The caller must supply exactly one int64 per
// column, with string columns already hash-encoded via HashString.
func (t *Table) InsertInts(values ...int64) error {
	if len(values) != len(t.schema.Columns) {
		return fmt.Errorf("relq: table %s: %d values for %d columns",
			t.schema.Name, len(values), len(t.schema.Columns))
	}
	t.appendRow(values)
	return nil
}

// minTailCap is the tail's first capacity when no hint reserved one.
const minTailCap = 16

// appendRow appends one encoded row to the tails and folds it into the
// open block's zone maps, opening a fresh zone when the previous block was
// sealed and sealing this one when the row fills it.
func (t *Table) appendRow(values []int64) {
	fresh := t.rows%BlockSize == 0
	for i, v := range values {
		c := &t.cols[i]
		if fresh {
			// First row of a new block: its value is the zone on both ends.
			c.zones = append(c.zones, zone{v, v})
		} else {
			z := &c.zones[len(c.zones)-1]
			z.min, z.max = min(z.min, v), max(z.max, v)
		}
		if len(c.tail) == cap(c.tail) {
			// Double, but never past the block the tail is sealed at.
			grown := make([]int64, len(c.tail), min(max(2*cap(c.tail), minTailCap), BlockSize))
			copy(grown, c.tail)
			c.tail = grown
		}
		c.tail = append(c.tail, v)
	}
	t.rows++
	if t.rows%BlockSize == 0 {
		for i := range t.cols {
			t.cols[i].seal()
		}
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
// column. Low-cardinality columns get exact frequency histograms; numeric
// columns get equi-depth histograms. The summary is also retained on the
// table so the executor can order conjuncts by estimated selectivity.
func (t *Table) BuildSummary() *TableSummary {
	ts := &TableSummary{
		Table:     t.schema.Name,
		TotalRows: int64(t.rows),
		Columns:   make(map[string]histogram.Histogram),
	}
	// One decoded copy serves every indexed column in turn: BuildEquiDepth
	// sorts its input in place (and keeps none of it), so it needs a copy
	// anyway, and the stored blocks are not []int64 to begin with.
	vals := make([]int64, 0, t.rows)
	for i, col := range t.schema.Columns {
		if !col.Indexed {
			continue
		}
		vals = t.appendColumn(vals[:0], i)
		if h := histogram.BuildFrequency(vals, maxFrequencyDistinct); h != nil {
			ts.Columns[col.Name] = h
			continue
		}
		ts.Columns[col.Name] = histogram.BuildEquiDepth(vals, HistogramBuckets)
	}
	t.lastSummary = ts
	return ts
}
