package relq

import (
	"encoding/binary"
	"fmt"
	"sort"

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
	Columns   map[string]histogram.Histogram
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
		h, ok := ts.Columns[p.Col]
		if !ok {
			continue
		}
		est *= predSelectivity(h, p.Op, p.Val.Resolve(nowSeconds))
	}
	return est
}

// Encode appends the summary's wire form to dst.
func (ts *TableSummary) Encode(dst []byte) []byte {
	dst = appendString(dst, ts.Table)
	dst = binary.AppendVarint(dst, ts.TotalRows)
	dst = binary.AppendUvarint(dst, uint64(len(ts.Columns)))
	// Deterministic order for stable wire sizes.
	names := make([]string, 0, len(ts.Columns))
	for name := range ts.Columns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = appendString(dst, name)
		dst = ts.Columns[name].Encode(dst)
	}
	return dst
}

// DecodeTableSummary parses a TableSummary from the front of b.
func DecodeTableSummary(b []byte) (*TableSummary, []byte, error) {
	ts := &TableSummary{Columns: make(map[string]histogram.Histogram)}
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
	ncols, n := binary.Uvarint(b)
	if n <= 0 || ncols > 1<<16 {
		return nil, nil, fmt.Errorf("relq: bad summary column count")
	}
	b = b[n:]
	for i := uint64(0); i < ncols; i++ {
		var name string
		name, b, err = readString(b)
		if err != nil {
			return nil, nil, err
		}
		var h histogram.Histogram
		h, b, err = histogram.Decode(b)
		if err != nil {
			return nil, nil, err
		}
		ts.Columns[name] = h
	}
	return ts, b, nil
}

// Summary is an endsystem's complete data summary: one TableSummary per
// local table. Its encoded size is the model parameter h (6,473 bytes for
// the Anemone deployment's five indexed columns).
type Summary struct {
	Tables map[string]*TableSummary
}

// NewSummary builds a Summary over the given tables.
func NewSummary(tables ...*Table) *Summary {
	s := &Summary{Tables: make(map[string]*TableSummary, len(tables))}
	for _, t := range tables {
		s.Tables[t.Schema().Name] = t.BuildSummary()
	}
	return s
}

// EstimateRows estimates the endsystem's row count relevant to the query,
// or 0 if the endsystem has no summary for the query's table.
func (s *Summary) EstimateRows(q *Query, nowSeconds int64) float64 {
	if s == nil {
		return 0
	}
	ts, ok := s.Tables[q.Table]
	if !ok {
		return 0
	}
	return ts.EstimateRows(q, nowSeconds)
}

// Encode returns the summary's wire form.
func (s *Summary) Encode() []byte {
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(s.Tables)))
	names := make([]string, 0, len(s.Tables))
	for name := range s.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = s.Tables[name].Encode(dst)
	}
	return dst
}

// DecodeSummary parses a Summary from its wire form.
func DecodeSummary(b []byte) (*Summary, error) {
	ntab, n := binary.Uvarint(b)
	if n <= 0 || ntab > 1<<12 {
		return nil, fmt.Errorf("relq: bad summary table count")
	}
	b = b[n:]
	s := &Summary{Tables: make(map[string]*TableSummary, ntab)}
	for i := uint64(0); i < ntab; i++ {
		ts, rest, err := DecodeTableSummary(b)
		if err != nil {
			return nil, err
		}
		s.Tables[ts.Table] = ts
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
