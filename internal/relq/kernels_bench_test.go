package relq

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernels times each execution kernel per row, at 1/50/99%
// selectivity, on one block that stays in L1 and on a rotation through 64
// tables' worth of column (16 MB, past L2) — the way a query meets an
// endsystem's data in the simulation. Values are shuffled, so a kernel
// with a data-dependent branch shows it at 50%. selInit also runs under
// every operator: they share one loop and must cost the same.
//
//	go test -run '^$' -bench Kernels -benchtime 2000x -cpu 1 ./internal/relq
//
// The agreement gate is the differential suite; the end-to-end number is
// relq.scan_ns_per_row_* in bench/.
func BenchmarkKernels(b *testing.B) {
	const (
		tables      = 64
		tableBlocks = 16
		eqVal       = 7 // the value = and <> compare with
	)
	// uniform holds values 0..99; eqCols[pct] holds eqVal in pct% of the
	// rows and distinct values elsewhere.
	rng := rand.New(rand.NewSource(14))
	gen := func(f func() int64) [][]int64 {
		cols := make([][]int64, tables)
		for t := range cols {
			cols[t] = make([]int64, tableBlocks*BlockSize)
			for i := range cols[t] {
				cols[t][i] = f()
			}
		}
		return cols
	}
	uniform := gen(func() int64 { return rng.Int63n(100) })
	eqCols := map[int][][]int64{}
	for _, pct := range []int{1, 50, 99} {
		pct := int64(pct)
		eqCols[int(pct)] = gen(func() int64 {
			if v := rng.Int63n(100); v >= pct {
				return 1000 + v
			}
			return eqVal
		})
	}
	// stepAt returns a step of op matching pct% of the rows, and its data.
	stepAt := func(op CmpOp, pct int) (step, [][]int64) {
		p := int64(pct)
		switch op {
		case OpEq:
			return newStep(0, op, eqVal), eqCols[pct]
		case OpNe:
			return newStep(0, op, eqVal), eqCols[100-pct]
		case OpLt:
			return newStep(0, op, p), uniform
		case OpLe:
			return newStep(0, op, p-1), uniform
		case OpGt:
			return newStep(0, op, 99-p), uniform
		default:
			return newStep(0, op, 100-p), uniform
		}
	}

	buf := make(selVec, BlockSize)
	odd := make(selVec, BlockSize/2) // the vector kernels' input: every other row
	for i := range odd {
		odd[i] = int32(2*i + 1)
	}
	work := make(selVec, len(odd))
	var sink int

	// run times kernel over the rotation (or over the first block alone)
	// and reports ns per row the kernel looked at.
	run := func(b *testing.B, name string, cols [][]int64, l1 bool, kernel func(seg []int64) (rows int)) {
		where := "cold"
		if l1 {
			where = "L1"
		}
		b.Run(name+"/"+where, func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				col := cols[i%tables]
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

	for _, l1 := range []bool{true, false} {
		for _, pct := range []int{1, 50, 99} {
			s, cols := stepAt(OpLt, pct)
			at := fmt.Sprintf("/sel=%d", pct)
			run(b, "selInit"+at, cols, l1, func(seg []int64) int {
				sink += len(selInit(seg, s.base, s.span, buf))
				return len(seg)
			})
			run(b, "countCol"+at, cols, l1, func(seg []int64) int {
				sink += countCol(seg, s.base, s.span)
				return len(seg)
			})
			run(b, "selRefine"+at, cols, l1, func(seg []int64) int {
				copy(work, odd)
				sink += len(selRefine(seg, s.base, s.span, work))
				return len(odd)
			})
			run(b, "countSel"+at, cols, l1, func(seg []int64) int {
				sink += countSel(seg, s.base, s.span, odd)
				return len(odd)
			})
			// The fold over the rows a selInit at this selectivity leaves.
			run(b, "selInit+aggColSel"+at, cols, l1, func(seg []int64) int {
				sel := selInit(seg, s.base, s.span, buf)
				sum, _, _ := aggColSel(seg, sel, 0, 0, 0)
				sink += int(sum)
				return len(seg)
			})
		}
		run(b, "aggColAll", uniform, l1, func(seg []int64) int {
			sum, _, _ := aggColAll(seg, 0, 0, 0)
			sink += int(sum)
			return len(seg)
		})
		for _, op := range allOps {
			s, cols := stepAt(op, 50)
			run(b, fmt.Sprintf("selInit/op=%s", op), cols, l1, func(seg []int64) int {
				sink += len(selInit(seg, s.base, s.span, buf))
				return len(seg)
			})
		}
	}
}
