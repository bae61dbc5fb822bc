package relq

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernels times each execution kernel per row at every element
// width a block can be sealed at (1, 2, 4 and 8 bytes), at 1/50/99%
// selectivity, on one block that stays in L1 and on a cold rotation through
// 64 tables' worth of column — the way a query meets an endsystem's data in
// the simulation. The rotation is the same 2M rows at every width: 16 MB
// (past L2) at 8 bytes, 2 MB at 1, so ns/row shows what the narrower
// storage of the same data buys, fewer lines per row and a lower level of
// the hierarchy to fetch them from. Values are shuffled, so a kernel with a
// data-dependent branch shows it at 50%. At 8 bytes selInit also runs
// under every operator: they share one loop and must cost the same. At 1,
// 2 and 4 bytes selInit and countCol are timed twice, as the generic
// bodies (/generic) and through the host's lane kernels (/simd, on hosts
// that have them).
//
//	go test -run '^$' -bench Kernels -benchtime 2000x -cpu 1 ./internal/relq
//
// The agreement gate is the differential suite; the end-to-end number is
// relq.scan_ns_per_row_* in bench/.
func BenchmarkKernels(b *testing.B) {
	benchKernelsAt[uint8](b, 1)
	benchKernelsAt[uint16](b, 2)
	benchKernelsAt[uint32](b, 4)
	benchKernelsAt[int64](b, 8)
}

var kernelSink int

const (
	benchTables      = 64
	benchTableBlocks = 16
	benchEqVal       = 7 // the value = and <> compare with
)

// benchCols fills a rotation of columns from f.
func benchCols[E elem](f func() int64) [][]E {
	cols := make([][]E, benchTables)
	for t := range cols {
		cols[t] = make([]E, benchTableBlocks*BlockSize)
		for i := range cols[t] {
			cols[t][i] = E(f())
		}
	}
	return cols
}

// benchRun times kernel over the rotation (or over the first block alone)
// and reports ns per row the kernel looked at.
func benchRun[E elem](b *testing.B, name string, cols [][]E, l1 bool, kernel func(seg []E) (rows int)) {
	where := "cold"
	if l1 {
		where = "L1"
	}
	b.Run(name+"/"+where, func(b *testing.B) {
		rows := 0
		for i := 0; i < b.N; i++ {
			col := cols[i%benchTables]
			for lo := 0; lo < len(col); lo += BlockSize {
				if l1 {
					rows += kernel(cols[0][:BlockSize])
				} else {
					rows += kernel(col[lo : lo+BlockSize])
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	})
}

func benchKernelsAt[E elem](b *testing.B, width int) {
	// uniform holds values 0..99, so v < pct matches pct% of the rows.
	rng := rand.New(rand.NewSource(14))
	uniform := benchCols[E](func() int64 { return rng.Int63n(100) })

	buf := make(selVec, BlockSize)
	odd := make(selVec, BlockSize/2) // the vector kernels' input: every other row
	for i := range odd {
		odd[i] = int32(2*i + 1)
	}
	work := make(selVec, len(odd))
	w := fmt.Sprintf("w=%d/", width)
	generic, lanes := "", hostLanes[E]()
	if width < 8 {
		generic = "/generic"
	}

	for _, l1 := range []bool{true, false} {
		for _, pct := range []int{1, 50, 99} {
			s := newStep(0, OpLt, int64(pct))
			base, span := uint64(s.base), s.span
			at := fmt.Sprintf("/sel=%d", pct)
			benchRun(b, w+"selInit"+generic+at, uniform, l1, func(seg []E) int {
				kernelSink += len(selInit(seg, base, span, buf))
				return len(seg)
			})
			benchRun(b, w+"countCol"+generic+at, uniform, l1, func(seg []E) int {
				kernelSink += countCol(seg, base, span)
				return len(seg)
			})
			if lanes.sel != nil {
				benchRun(b, w+"selInit/simd"+at, uniform, l1, func(seg []E) int {
					n, _ := runStep(lanes, seg, base, span, nil, buf, false)
					kernelSink += n
					return len(seg)
				})
				benchRun(b, w+"countCol/simd"+at, uniform, l1, func(seg []E) int {
					n, _ := runStep(lanes, seg, base, span, nil, nil, true)
					kernelSink += n
					return len(seg)
				})
			}
			benchRun(b, w+"selRefine"+at, uniform, l1, func(seg []E) int {
				copy(work, odd)
				kernelSink += len(selRefine(seg, base, span, work))
				return len(odd)
			})
			benchRun(b, w+"countSel"+at, uniform, l1, func(seg []E) int {
				kernelSink += countSel(seg, base, span, odd)
				return len(odd)
			})
			// The fold over the rows a selInit at this selectivity leaves.
			benchRun(b, w+"selInit+aggColSel"+at, uniform, l1, func(seg []E) int {
				sum, _, _ := aggColSel(seg, selInit(seg, base, span, buf))
				kernelSink += int(sum)
				return len(seg)
			})
		}
		benchRun(b, w+"aggColAll", uniform, l1, func(seg []E) int {
			sum, _, _ := aggColAll(seg)
			kernelSink += int(sum)
			return len(seg)
		})
	}
	if width != 8 {
		return
	}

	// half holds benchEqVal in 50% of the rows and distinct values
	// elsewhere, for = and <>.
	half := benchCols[E](func() int64 {
		if v := rng.Int63n(100); v >= 50 {
			return 1000 + v
		}
		return benchEqVal
	})
	for _, l1 := range []bool{true, false} {
		for _, op := range allOps {
			s, cols := newStep(0, op, 50), uniform
			switch op {
			case OpEq, OpNe:
				s, cols = newStep(0, op, benchEqVal), half
			case OpLe, OpGt:
				s = newStep(0, op, 49)
			}
			base, span := uint64(s.base), s.span
			benchRun(b, fmt.Sprintf("%sselInit/op=%s", w, op), cols, l1, func(seg []E) int {
				kernelSink += len(selInit(seg, base, span, buf))
				return len(seg)
			})
		}
	}
}
