// Package agg implements the decomposable aggregation operators Seaweed
// evaluates in-network. A Partial is the intermediate state of a standard
// SQL aggregate (SUM, COUNT, AVG, MIN, MAX) computed over a subset of the
// rows; Partials merge associatively and commutatively, which is what lets
// the result aggregation tree combine child results at interior vertices
// and keep messages constant-size regardless of how many endsystems
// contributed.
package agg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind identifies an aggregation operator.
type Kind int

const (
	Count Kind = iota
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the operator.
func (k Kind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a SQL aggregate name (case-insensitive match is the
// caller's job; this expects upper case).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "COUNT":
		return Count, nil
	case "SUM":
		return Sum, nil
	case "AVG":
		return Avg, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	default:
		return 0, fmt.Errorf("agg: unknown aggregate %q", s)
	}
}

// Partial is the decomposable intermediate state of an aggregate. It
// carries enough to finalize any operator: AVG finalizes as Sum/Count, and
// MIN/MAX track extrema with a validity flag for the empty case. The zero
// Partial is the identity element of Merge.
type Partial struct {
	Count    int64
	Sum      float64
	MinV     float64
	MaxV     float64
	HasBound bool // MinV/MaxV are meaningful (Count > 0 contributionwise)
}

// Observe folds one row's value into the partial.
func (p *Partial) Observe(v float64) {
	p.Count++
	p.Sum += v
	if !p.HasBound {
		p.MinV, p.MaxV = v, v
		p.HasBound = true
		return
	}
	if v < p.MinV {
		p.MinV = v
	}
	if v > p.MaxV {
		p.MaxV = v
	}
}

// ObserveRow folds one row into a COUNT(*)-style partial where no column
// value is aggregated.
func (p *Partial) ObserveRow() {
	p.Count++
}

// Merge combines two partials. Merge is associative and commutative with
// the zero Partial as identity, the property the aggregation tree relies
// on.
func (p Partial) Merge(q Partial) Partial {
	out := Partial{
		Count: p.Count + q.Count,
		Sum:   p.Sum + q.Sum,
	}
	switch {
	case p.HasBound && q.HasBound:
		out.MinV = math.Min(p.MinV, q.MinV)
		out.MaxV = math.Max(p.MaxV, q.MaxV)
		out.HasBound = true
	case p.HasBound:
		out.MinV, out.MaxV, out.HasBound = p.MinV, p.MaxV, true
	case q.HasBound:
		out.MinV, out.MaxV, out.HasBound = q.MinV, q.MaxV, true
	}
	return out
}

// Final evaluates the aggregate for the given operator. An empty partial
// yields 0 for COUNT and SUM and NaN for AVG, MIN and MAX (SQL would yield
// NULL).
func (p Partial) Final(kind Kind) float64 {
	switch kind {
	case Count:
		return float64(p.Count)
	case Sum:
		return p.Sum
	case Avg:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Sum / float64(p.Count)
	case Min:
		if !p.HasBound {
			return math.NaN()
		}
		return p.MinV
	case Max:
		if !p.HasBound {
			return math.NaN()
		}
		return p.MaxV
	default:
		return math.NaN()
	}
}

// EncodedPartialSize is the wire size of an encoded Partial.
const EncodedPartialSize = 8 + 8 + 8 + 8 + 1

// Encode appends the fixed-size wire form of the partial to dst.
func (p Partial) Encode(dst []byte) []byte {
	var buf [EncodedPartialSize]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(p.Count))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(p.Sum))
	binary.BigEndian.PutUint64(buf[16:], math.Float64bits(p.MinV))
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(p.MaxV))
	if p.HasBound {
		buf[32] = 1
	}
	return append(dst, buf[:]...)
}

// DecodePartial parses a Partial from the front of b, returning it and the
// remaining bytes. The bound flag must be 0 or 1, as Encode writes it.
func DecodePartial(b []byte) (Partial, []byte, error) {
	if len(b) < EncodedPartialSize {
		return Partial{}, nil, fmt.Errorf("agg: partial needs %d bytes, have %d", EncodedPartialSize, len(b))
	}
	if b[32] > 1 {
		return Partial{}, nil, fmt.Errorf("agg: bad bound flag %d", b[32])
	}
	p := Partial{
		Count:    int64(binary.BigEndian.Uint64(b[0:])),
		Sum:      math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
		MinV:     math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
		MaxV:     math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
		HasBound: b[32] == 1,
	}
	return p, b[EncodedPartialSize:], nil
}
