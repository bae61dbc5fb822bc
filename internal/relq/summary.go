package relq

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/histogram"
)

// Summary is the compact data summary of an endsystem's table: a
// histogram per indexed column plus the exact total row count. Summaries
// are what Seaweed proactively replicates to an endsystem's replica set
// (§3.2.2), and what replicas use to estimate the endsystem's relevant row
// count for a query while the endsystem is unavailable. Its encoded size
// is the model parameter h (6,473 bytes for the Anemone deployment's five
// indexed columns).
type Summary struct {
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
func (s *Summary) Column(name string) histogram.Histogram {
	i, ok := slices.BinarySearchFunc(s.Columns, name, func(c ColumnSummary, name string) int {
		return strings.Compare(c.Name, name)
	})
	if !ok {
		return nil
	}
	return s.Columns[i].Histogram
}

// EstimateRows estimates how many of the table's rows match the query's
// predicates, multiplying per-predicate selectivities under the standard
// attribute-independence assumption. Predicates on columns without a
// histogram contribute selectivity 1 (a conservative overestimate). A
// nil summary, or a query on another table, estimates 0. nowSeconds binds
// NOW() in predicate expressions.
func (s *Summary) EstimateRows(q *Query, nowSeconds int64) float64 {
	if s == nil || q.Table != s.Table {
		return 0
	}
	est := float64(s.TotalRows)
	for _, p := range q.Preds {
		if h := s.Column(p.Col); h != nil {
			est *= predSelectivity(h, p.Op, p.Val.Resolve(nowSeconds))
		}
	}
	return est
}

// Encode returns the summary's wire form: a table count, always 1, then
// the table's name, its row total and its columns in ascending name
// order, which is theirs.
func (s *Summary) Encode() []byte {
	dst := binary.AppendUvarint(nil, 1)
	dst = appendString(dst, s.Table)
	dst = binary.AppendVarint(dst, s.TotalRows)
	dst = binary.AppendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = appendString(dst, c.Name)
		dst = c.Histogram.Encode(dst)
	}
	return dst
}

// DecodeSummary parses a Summary from its wire form. The table count must
// be 1, and column names must ascend strictly, as Encode writes them.
func DecodeSummary(b []byte) (*Summary, error) {
	ntab, n := binary.Uvarint(b)
	if n <= 0 || ntab != 1 {
		return nil, fmt.Errorf("relq: bad summary table count")
	}
	s := &Summary{}
	var err error
	s.Table, b, err = readString(b[n:])
	if err != nil {
		return nil, err
	}
	total, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("relq: truncated summary")
	}
	s.TotalRows = total
	b = b[n:]
	// A column is at least a name length and a 3-byte histogram.
	ncols, n := binary.Uvarint(b)
	if n <= 0 || ncols > uint64(len(b)-n)/4 {
		return nil, fmt.Errorf("relq: bad summary column count")
	}
	b = b[n:]
	s.Columns = make([]ColumnSummary, ncols)
	for i := range s.Columns {
		c := &s.Columns[i]
		c.Name, b, err = readString(b)
		if err != nil {
			return nil, err
		}
		if i > 0 && c.Name <= s.Columns[i-1].Name {
			return nil, fmt.Errorf("relq: summary column %q after %q", c.Name, s.Columns[i-1].Name)
		}
		c.Histogram, b, err = histogram.Decode(b)
		if err != nil {
			return nil, err
		}
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
