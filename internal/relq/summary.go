package relq

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/histogram"
)

// TableSummary is the compact data summary of one table on one endsystem:
// a histogram per indexed column plus the exact total row count. Summaries
// are what Seaweed proactively replicates to an endsystem's replica set
// (§3.2.2), and what replicas use to estimate the endsystem's relevant row
// count for a query while the endsystem is unavailable.
type TableSummary struct {
	Table     string
	TotalRows int64
	Columns   []ColumnSummary // ascending by Name, the order Encode writes
}

// ColumnSummary is one indexed column's histogram.
type ColumnSummary struct {
	Name      string
	Histogram histogram.Histogram
}

// Column returns the named column's histogram, or nil.
func (ts *TableSummary) Column(name string) histogram.Histogram {
	i, ok := slices.BinarySearchFunc(ts.Columns, name, func(c ColumnSummary, name string) int {
		return strings.Compare(c.Name, name)
	})
	if !ok {
		return nil
	}
	return ts.Columns[i].Histogram
}

// EstimateRows estimates how many of the table's rows match the query's
// predicates, multiplying per-predicate selectivities under the standard
// attribute-independence assumption. Predicates on columns without a
// histogram contribute selectivity 1 (a conservative overestimate).
// nowSeconds binds NOW() in predicate expressions.
func (ts *TableSummary) EstimateRows(q *Query, nowSeconds int64) float64 {
	if q.Table != ts.Table {
		return 0
	}
	est := float64(ts.TotalRows)
	for _, p := range q.Preds {
		if h := ts.Column(p.Col); h != nil {
			est *= predSelectivity(h, p.Op, p.Val.Resolve(nowSeconds))
		}
	}
	return est
}

// Encode appends the summary's wire form to dst: the columns in ascending
// name order, which is theirs.
func (ts *TableSummary) Encode(dst []byte) []byte {
	dst = appendString(dst, ts.Table)
	dst = binary.AppendVarint(dst, ts.TotalRows)
	dst = binary.AppendUvarint(dst, uint64(len(ts.Columns)))
	for _, c := range ts.Columns {
		dst = appendString(dst, c.Name)
		dst = c.Histogram.Encode(dst)
	}
	return dst
}

// DecodeTableSummary parses a TableSummary from the front of b. Column
// names must ascend strictly, as Encode writes them.
func DecodeTableSummary(b []byte) (*TableSummary, []byte, error) {
	ts := &TableSummary{}
	var err error
	ts.Table, b, err = readString(b)
	if err != nil {
		return nil, nil, err
	}
	total, n := binary.Varint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("relq: truncated summary")
	}
	ts.TotalRows = total
	b = b[n:]
	// A column is at least a name length and a 3-byte histogram.
	ncols, n := binary.Uvarint(b)
	if n <= 0 || ncols > uint64(len(b)-n)/4 {
		return nil, nil, fmt.Errorf("relq: bad summary column count")
	}
	b = b[n:]
	ts.Columns = make([]ColumnSummary, ncols)
	for i := range ts.Columns {
		c := &ts.Columns[i]
		c.Name, b, err = readString(b)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 && c.Name <= ts.Columns[i-1].Name {
			return nil, nil, fmt.Errorf("relq: summary column %q after %q", c.Name, ts.Columns[i-1].Name)
		}
		c.Histogram, b, err = histogram.Decode(b)
		if err != nil {
			return nil, nil, err
		}
	}
	return ts, b, nil
}

// Summary is an endsystem's complete data summary: one TableSummary per
// local table. Its encoded size is the model parameter h (6,473 bytes for
// the Anemone deployment's five indexed columns).
type Summary struct {
	Tables []*TableSummary // ascending by Table, the order Encode writes
}

// NewSummary builds a Summary over the given tables. Of two tables of one
// name, the first is summarized.
func NewSummary(tables ...*Table) *Summary {
	s := &Summary{Tables: make([]*TableSummary, 0, len(tables))}
	for _, t := range tables {
		s.Tables = append(s.Tables, t.BuildSummary())
	}
	slices.SortStableFunc(s.Tables, func(a, b *TableSummary) int { return strings.Compare(a.Table, b.Table) })
	s.Tables = slices.CompactFunc(s.Tables, func(a, b *TableSummary) bool { return a.Table == b.Table })
	return s
}

// EstimateRows estimates the endsystem's row count relevant to the query,
// or 0 if the endsystem has no summary for the query's table.
func (s *Summary) EstimateRows(q *Query, nowSeconds int64) float64 {
	if s == nil {
		return 0
	}
	for _, ts := range s.Tables {
		if ts.Table == q.Table {
			return ts.EstimateRows(q, nowSeconds)
		}
	}
	return 0
}

// Encode returns the summary's wire form: the tables in ascending name
// order, which is theirs.
func (s *Summary) Encode() []byte {
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(s.Tables)))
	for _, ts := range s.Tables {
		dst = ts.Encode(dst)
	}
	return dst
}

// DecodeSummary parses a Summary from its wire form. The table count is
// checked against the bytes left before the table list is sized by it: a
// table is at least a name length, a row total and a column count. Table
// names must ascend strictly, as Encode writes them.
func DecodeSummary(b []byte) (*Summary, error) {
	ntab, n := binary.Uvarint(b)
	if n <= 0 || ntab > uint64(len(b)-n)/3 {
		return nil, fmt.Errorf("relq: bad summary table count")
	}
	b = b[n:]
	s := &Summary{Tables: make([]*TableSummary, ntab)}
	for i := range s.Tables {
		ts, rest, err := DecodeTableSummary(b)
		if err != nil {
			return nil, err
		}
		if i > 0 && ts.Table <= s.Tables[i-1].Table {
			return nil, fmt.Errorf("relq: summary table %q after %q", ts.Table, s.Tables[i-1].Table)
		}
		s.Tables[i] = ts
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("relq: %d trailing bytes in summary", len(b))
	}
	return s, nil
}

// EncodedSize returns the wire size of the summary in bytes (the model
// parameter h).
func (s *Summary) EncodedSize() int { return len(s.Encode()) }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l || l > 1<<16 {
		return "", nil, fmt.Errorf("relq: truncated string")
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}
