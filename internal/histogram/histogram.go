// Package histogram implements the column histograms Seaweed replicates as
// data summaries (§3.2.2). A Seaweed endsystem pushes histograms on the
// indexed columns of its local database to its replica set; when a query
// arrives while the endsystem is unavailable, any replica can estimate the
// endsystem's relevant row count from the replicated histogram using
// standard row-count estimation.
//
// Three histogram kinds are provided:
//
//   - EquiWidth: fixed-width buckets over the column's value range. Cheap
//     to build incrementally; estimation interpolates within buckets.
//   - EquiDepth: buckets holding (approximately) equal row counts, built
//     from the sorted column. Better estimates for skewed numeric data.
//   - Frequency: exact per-value counts for low-cardinality (categorical)
//     columns, e.g. application names or protocol numbers.
//
// All histograms operate on int64 values; categorical columns are
// hash-encoded by the relational layer before histogram construction.
package histogram

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Histogram estimates row counts for predicates on a single column.
type Histogram interface {
	// EstimateRange returns the estimated number of rows with value in
	// [lo, hi] (both inclusive).
	EstimateRange(lo, hi int64) float64
	// EstimateEq returns the estimated number of rows with value == v.
	EstimateEq(v int64) float64
	// TotalRows returns the exact number of rows summarized.
	TotalRows() int64
	// Encode appends a self-describing wire encoding to dst.
	Encode(dst []byte) []byte
}

// Kind tags the wire encoding of each histogram type.
type Kind byte

const (
	KindEquiWidth Kind = 1
	KindEquiDepth Kind = 2
	KindFrequency Kind = 3
)

// Decode parses one histogram from the front of b, returning the histogram
// and the remaining bytes. It checks every entry count against the bytes
// left before allocating for it, and rejects row counts above 2^53, which
// a float64 cannot hold exactly.
func Decode(b []byte) (Histogram, []byte, error) {
	if len(b) < 1 {
		return nil, nil, fmt.Errorf("histogram: empty buffer")
	}
	switch Kind(b[0]) {
	case KindEquiWidth:
		return decodeEquiWidth(b)
	case KindEquiDepth:
		return decodeEquiDepth(b)
	case KindFrequency:
		return decodeFrequency(b)
	default:
		return nil, nil, fmt.Errorf("histogram: unknown kind %d", b[0])
	}
}

// EncodedSize returns the wire size of a histogram.
func EncodedSize(h Histogram) int { return len(h.Encode(nil)) }

// ---------------------------------------------------------------- EquiWidth

// EquiWidth divides [Min, Max] into equal-width buckets with a row count
// per bucket.
type EquiWidth struct {
	Min, Max int64
	Counts   []float64
	total    int64
}

// BuildEquiWidth builds an equi-width histogram with the given bucket count
// over the values. A nil or empty value slice yields an empty histogram
// that estimates zero everywhere.
func BuildEquiWidth(values []int64, buckets int) *EquiWidth {
	if buckets <= 0 {
		buckets = 1
	}
	h := &EquiWidth{Counts: make([]float64, buckets)}
	if len(values) == 0 {
		return h
	}
	h.Min, h.Max = values[0], values[0]
	for _, v := range values {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	for _, v := range values {
		h.Counts[h.bucketOf(v)]++
	}
	h.total = int64(len(values))
	return h
}

func (h *EquiWidth) bucketOf(v int64) int {
	if h.Max == h.Min {
		return 0
	}
	// Use float to avoid overflow on wide ranges.
	f := float64(v-h.Min) / float64(h.Max-h.Min)
	i := int(f * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// width returns the bucket width as a float.
func (h *EquiWidth) width() float64 {
	return float64(h.Max-h.Min) / float64(len(h.Counts))
}

// EstimateRange implements Histogram by summing full buckets and linearly
// interpolating the two partial end buckets.
func (h *EquiWidth) EstimateRange(lo, hi int64) float64 {
	if h.total == 0 || hi < lo || hi < h.Min || lo > h.Max {
		return 0
	}
	if lo == hi {
		return h.EstimateEq(lo)
	}
	if h.Max == h.Min {
		return float64(h.total)
	}
	flo, fhi := float64(lo), float64(hi)+1 // treat values as unit-width
	var est float64
	w := h.width()
	for i, c := range h.Counts {
		bLo := float64(h.Min) + float64(i)*w
		bHi := bLo + w
		oLo, oHi := math.Max(bLo, flo), math.Min(bHi, fhi)
		if oHi <= oLo {
			continue
		}
		est += c * (oHi - oLo) / w
	}
	if est > float64(h.total) {
		est = float64(h.total)
	}
	return est
}

// EstimateEq implements Histogram assuming values are uniformly spread
// within the bucket.
func (h *EquiWidth) EstimateEq(v int64) float64 {
	if h.total == 0 || v < h.Min || v > h.Max {
		return 0
	}
	if h.Max == h.Min {
		return float64(h.total)
	}
	c := h.Counts[h.bucketOf(v)]
	w := h.width()
	if w < 1 {
		w = 1
	}
	return c / w
}

// TotalRows implements Histogram.
func (h *EquiWidth) TotalRows() int64 { return h.total }

// Encode implements Histogram.
func (h *EquiWidth) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindEquiWidth))
	dst = binary.AppendVarint(dst, h.Min)
	dst = binary.AppendVarint(dst, h.Max)
	dst = binary.AppendVarint(dst, h.total)
	dst = binary.AppendUvarint(dst, uint64(len(h.Counts)))
	for _, c := range h.Counts {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

func decodeEquiWidth(b []byte) (Histogram, []byte, error) {
	r := reader{b: b[1:]}
	h := &EquiWidth{}
	h.Min = r.varint()
	h.Max = r.varint()
	h.total = r.varint()
	n := r.count(1)
	if r.err == nil && n == 0 {
		return nil, nil, fmt.Errorf("histogram: equi-width histogram without buckets")
	}
	h.Counts = make([]float64, n)
	for i := range h.Counts {
		h.Counts[i] = r.rows()
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return h, r.b, nil
}

// ---------------------------------------------------------------- EquiDepth

// EquiDepth is a SQL Server-style step histogram, the kind the paper's
// endsystems export from their local DBMS. Each step ends at an actual
// column value Bounds[i] whose exact row count is EqRows[i]; RangeRows[i]
// and RangeDistinct[i] describe the rows strictly between Bounds[i-1] and
// Bounds[i]. Step boundaries land on high-frequency values by
// construction, so equality and boundary-adjacent range predicates on
// skewed columns (e.g. well-known ports) estimate exactly.
type EquiDepth struct {
	Bounds        []int64 // upper boundary value of each step, ascending
	EqRows        []float64
	RangeRows     []float64
	RangeDistinct []float64
	total         int64
}

// BuildEquiDepth builds a step histogram from the values, which it sorts
// in place and keeps none of. With n values and t = max(1, ⌊n/buckets⌋)
// it emits at most ⌊(n−2)/t⌋ + 2 steps, and exactly that many when the
// values are distinct: the first and last distinct values are always
// steps, and every interior step holds at least t rows. So the step count
// may exceed buckets (66 steps for 30,000 distinct values at 64 buckets,
// 96 for 191).
func BuildEquiDepth(values []int64, buckets int) *EquiDepth {
	var scratch []int64
	return BuildEquiDepthBuf(values, &scratch, buckets)
}

// BuildEquiDepthBuf is BuildEquiDepth with a caller-held sort buffer, so
// one buffer serves a table's columns in turn. The buffer is allocated, or
// grown, only when a column is long enough to be radix-sorted.
func BuildEquiDepthBuf(values []int64, scratch *[]int64, buckets int) *EquiDepth {
	sortInt64s(values, scratch)
	return equiDepthSorted(values, buckets)
}

// equiDepthSorted builds the step histogram of ascending values.
func equiDepthSorted(values []int64, buckets int) *EquiDepth {
	if buckets <= 0 {
		buckets = 1
	}
	h := &EquiDepth{}
	if len(values) == 0 {
		return h
	}
	target := len(values) / buckets
	if target < 1 {
		target = 1
	}

	emit := func(bound int64, eq, rr, rd float64) {
		h.Bounds = append(h.Bounds, bound)
		h.EqRows = append(h.EqRows, eq)
		h.RangeRows = append(h.RangeRows, rr)
		h.RangeDistinct = append(h.RangeDistinct, rd)
	}

	var rangeAcc, distinctAcc float64
	i := 0
	first := true
	for i < len(values) {
		v := values[i]
		j := i
		for j < len(values) && values[j] == v {
			j++
		}
		runCount := float64(j - i)
		last := j >= len(values)
		// The first distinct value and the last always become step
		// boundaries (SQL Server anchors its first step at the minimum).
		if first || last || rangeAcc+runCount >= float64(target) {
			emit(v, runCount, rangeAcc, distinctAcc)
			rangeAcc, distinctAcc = 0, 0
			first = false
		} else {
			rangeAcc += runCount
			distinctAcc++
		}
		i = j
	}
	h.total = int64(len(values))
	return h
}

// Radix sort parameters. 11-bit digits keep the 2,048 counters in L1.
// radixCutoff is where the two sorts cross: in BenchmarkSortInt64s
// (2-vCPU Xeon guest, go1.24.0) radixSort overtakes slices.Sort between
// 256 and 384 values for a two-pass span (the ports, ts) and between 512
// and 768 for a three-pass one (Bytes); at 512 the two are within 15%.
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixCutoff = 512
)

// sortInt64s sorts values ascending: by slices.Sort below radixCutoff
// values, by radixSort from there on, growing *scratch to len(values)
// first if it is shorter.
func sortInt64s(values []int64, scratch *[]int64) {
	if len(values) < radixCutoff {
		slices.Sort(values)
		return
	}
	if len(*scratch) < len(values) {
		*scratch = make([]int64, len(values))
	}
	radixSort(values, *scratch)
}

// radixSort sorts values ascending, using scratch, which must be at least
// as long, as the second buffer. It is an LSD radix sort on each value's offset
// from the minimum, uint64(v) - uint64(min), with one pass per digit the
// span max − min needs (two for 18 bits, six for the full int64 range); a
// pass whose digit is the same for every value is skipped. Ascending int64
// order is unique, so the result is the one any sort gives.
func radixSort(values, scratch []int64) {
	n := len(values)
	if n == 0 {
		return
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	base := uint64(lo)
	span := uint64(hi) - base
	if span == 0 {
		return
	}
	src, dst := values, scratch[:n]
	for shift := 0; shift < bits.Len64(span); shift += radixBits {
		var counts [radixMask + 1]int
		for _, v := range src {
			counts[(uint64(v)-base)>>shift&radixMask]++
		}
		if counts[(uint64(src[0])-base)>>shift&radixMask] == n {
			continue
		}
		sum := 0
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, v := range src {
			d := (uint64(v) - base) >> shift & radixMask
			dst[counts[d]] = v
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &values[0] {
		copy(values, src)
	}
}

// interiorSpan returns the number of possible integer values strictly
// between two step boundaries.
func interiorSpan(lo, hi int64) float64 {
	s := float64(hi) - float64(lo) - 1
	if s < 0 {
		return 0
	}
	return s
}

// EstimateRange implements Histogram: exact boundary counts plus
// interpolated interior rows.
func (h *EquiDepth) EstimateRange(lo, hi int64) float64 {
	if h.total == 0 || hi < lo {
		return 0
	}
	var est float64
	for i, b := range h.Bounds {
		if b >= lo && b <= hi {
			est += h.EqRows[i]
		}
		if i == 0 {
			continue
		}
		// Interior values lie in (prev, b) exclusive.
		prev := h.Bounds[i-1]
		span := interiorSpan(prev, b)
		if span == 0 || h.RangeRows[i] == 0 {
			continue
		}
		oLo, oHi := maxI64(lo, prev+1), minI64(hi, b-1)
		if oHi < oLo {
			continue
		}
		overlap := float64(oHi) - float64(oLo) + 1
		est += h.RangeRows[i] * overlap / span
	}
	if est > float64(h.total) {
		est = float64(h.total)
	}
	return est
}

// EstimateEq implements Histogram: exact at step boundaries, uniform
// within step interiors.
func (h *EquiDepth) EstimateEq(v int64) float64 {
	i, _ := slices.BinarySearch(h.Bounds, v)
	if i >= len(h.Bounds) {
		return 0
	}
	if h.Bounds[i] == v {
		return h.EqRows[i]
	}
	if i == 0 {
		return 0 // below the minimum
	}
	d := h.RangeDistinct[i]
	if d < 1 {
		d = 1
	}
	return h.RangeRows[i] / d
}

// TotalRows implements Histogram.
func (h *EquiDepth) TotalRows() int64 { return h.total }

// Encode implements Histogram.
func (h *EquiDepth) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindEquiDepth))
	dst = binary.AppendVarint(dst, h.total)
	dst = binary.AppendUvarint(dst, uint64(len(h.Bounds)))
	prev := int64(0)
	for i, bd := range h.Bounds {
		if i == 0 {
			dst = binary.AppendVarint(dst, bd)
		} else {
			dst = binary.AppendVarint(dst, bd-prev) // delta-encode boundaries
		}
		prev = bd
	}
	for i := range h.Bounds {
		dst = binary.AppendUvarint(dst, uint64(h.EqRows[i]))
		dst = binary.AppendUvarint(dst, uint64(h.RangeRows[i]))
		dst = binary.AppendUvarint(dst, uint64(h.RangeDistinct[i]))
	}
	return dst
}

func decodeEquiDepth(b []byte) (Histogram, []byte, error) {
	r := reader{b: b[1:]}
	h := &EquiDepth{}
	h.total = r.varint()
	n := r.count(4) // a boundary and three row counts per step
	if n > 0 {
		h.Bounds = make([]int64, n)
		prev := int64(0)
		for i := range h.Bounds {
			d := r.varint()
			if i == 0 {
				h.Bounds[i] = d
			} else {
				h.Bounds[i] = prev + d
			}
			prev = h.Bounds[i]
		}
		h.EqRows = make([]float64, n)
		h.RangeRows = make([]float64, n)
		h.RangeDistinct = make([]float64, n)
		for i := 0; i < n; i++ {
			h.EqRows[i] = r.rows()
			h.RangeRows[i] = r.rows()
			h.RangeDistinct[i] = r.rows()
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return h, r.b, nil
}

// ---------------------------------------------------------------- Frequency

// Frequency stores exact per-value row counts for low-cardinality columns.
type Frequency struct {
	Values []int64 // sorted
	Counts []float64
	total  int64
}

// BuildFrequency builds an exact frequency histogram. If the number of
// distinct values exceeds maxDistinct it returns nil; callers should fall
// back to an equi-depth histogram.
func BuildFrequency(values []int64, maxDistinct int) *Frequency {
	counts := make(map[int64]float64)
	for _, v := range values {
		counts[v]++
		if len(counts) > maxDistinct {
			return nil
		}
	}
	h := &Frequency{total: int64(len(values))}
	h.Values = make([]int64, 0, len(counts))
	for v := range counts {
		h.Values = append(h.Values, v)
	}
	slices.Sort(h.Values)
	h.Counts = make([]float64, len(h.Values))
	for i, v := range h.Values {
		h.Counts[i] = counts[v]
	}
	return h
}

// EstimateRange implements Histogram exactly.
func (h *Frequency) EstimateRange(lo, hi int64) float64 {
	var est float64
	i, _ := slices.BinarySearch(h.Values, lo)
	for ; i < len(h.Values) && h.Values[i] <= hi; i++ {
		est += h.Counts[i]
	}
	return est
}

// EstimateEq implements Histogram exactly.
func (h *Frequency) EstimateEq(v int64) float64 {
	if i, ok := slices.BinarySearch(h.Values, v); ok {
		return h.Counts[i]
	}
	return 0
}

// TotalRows implements Histogram.
func (h *Frequency) TotalRows() int64 { return h.total }

// Encode implements Histogram.
func (h *Frequency) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindFrequency))
	dst = binary.AppendVarint(dst, h.total)
	dst = binary.AppendUvarint(dst, uint64(len(h.Values)))
	prev := int64(0)
	for i, v := range h.Values {
		if i == 0 {
			dst = binary.AppendVarint(dst, v)
		} else {
			dst = binary.AppendVarint(dst, v-prev)
		}
		prev = v
		dst = binary.AppendUvarint(dst, uint64(h.Counts[i]))
	}
	return dst
}

func decodeFrequency(b []byte) (Histogram, []byte, error) {
	r := reader{b: b[1:]}
	h := &Frequency{}
	h.total = r.varint()
	n := r.count(2) // a value and its row count per entry
	h.Values = make([]int64, n)
	h.Counts = make([]float64, n)
	prev := int64(0)
	for i := range h.Values {
		d := r.varint()
		if i == 0 {
			h.Values[i] = d
		} else {
			h.Values[i] = prev + d
		}
		prev = h.Values[i]
		h.Counts[i] = r.rows()
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return h, r.b, nil
}

// ---------------------------------------------------------------- helpers

type reader struct {
	b   []byte
	err error
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("histogram: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("histogram: truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an entry count and checks that the bytes left can hold
// that many entries of at least perEntry bytes each, so a corrupt count
// fails before anything is allocated for it. It returns 0 on error.
func (r *reader) count(perEntry int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/perEntry) {
		r.err = fmt.Errorf("histogram: %d entries cannot fit in %d bytes", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// maxRows is the largest row count a float64 holds exactly.
const maxRows = 1 << 53

// rows reads one row count. Encode writes uint64(count), so a count above
// maxRows would not survive a decode-encode round trip.
func (r *reader) rows() float64 {
	v := r.uvarint()
	if r.err == nil && v > maxRows {
		r.err = fmt.Errorf("histogram: row count %d above 2^53", v)
	}
	return float64(v)
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
