package relq

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernels times each execution kernel per row at every element
// width a block can be sealed at (1, 2, 4 and 8 bytes), at 1/50/99%
// selectivity, on one block that stays in L1 and on two cold rotations
// through 64 tables' worth of column — the way a query meets an
// endsystem's data in the simulation. In the contiguous rotation each
// table's blocks lie back to back, as a table's arena holds them once it
// reaches its row hint; in the scattered one every block is its own
// allocation, made in a shuffled order, as sealing interleaves a table's
// blocks with its other columns' and everything else allocated meanwhile,
// so each block starts a new prefetch stream. The rotation is
// the same 2M rows at every width: 16 MB (past L2) at 8 bytes, 2 MB at 1,
// so ns/row shows what the narrower storage of the same data buys, fewer
// lines per row and a lower level of the hierarchy to fetch them from.
// Values are shuffled, so a kernel with a data-dependent branch shows it
// at 50%.
//
// Rows: mask is one step's pass into a block's mask (a first step: every
// bit set before it), mask+fold that pass and the masked fold of the same
// column under the mask it leaves (a one-conjunct SUM), and fold the fold
// under a full mask (a block every row of which matches). At 1, 2 and 4
// bytes each is timed as the generic bodies (/generic) and through the
// host's lane kernels (/simd, on hosts that have them); at 8 bytes there
// are only the generic bodies, and mask also runs under every operator:
// they share one loop and must cost the same.
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

// benchBlocks is a rotation of tables' blocks: benchBlocks[t][b] is
// block b of table t.
type benchBlocks[E elem] [][][]E

// benchRotations fills the contiguous rotation with values drawn from f
// and, if scatter is set, the scattered one with the same values.
func benchRotations[E elem](rng *rand.Rand, f func() int64, scatter bool) (contiguous, scattered benchBlocks[E]) {
	contiguous, scattered = make(benchBlocks[E], benchTables), make(benchBlocks[E], benchTables)
	for t := range contiguous {
		col := make([]E, benchTableBlocks*BlockSize)
		for i := range col {
			col[i] = E(f())
		}
		contiguous[t] = make([][]E, benchTableBlocks)
		scattered[t] = make([][]E, benchTableBlocks)
		for b := range contiguous[t] {
			contiguous[t][b] = col[b*BlockSize : (b+1)*BlockSize]
		}
	}
	// Every block of every table in a shuffled order, so that no two
	// blocks of a table are allocated one after the other.
	for _, i := range rng.Perm(benchTables * benchTableBlocks) {
		if t, b := i/benchTableBlocks, i%benchTableBlocks; scatter {
			scattered[t][b] = append([]E(nil), contiguous[t][b]...)
		}
	}
	return contiguous, scattered
}

// benchRun times kernel over the rotation, or over its first block alone
// when where is "L1", and reports ns per row the kernel looked at.
func benchRun[E elem](b *testing.B, name, where string, rot benchBlocks[E], kernel func(seg []E) (rows int)) {
	b.Run(name+"/"+where, func(b *testing.B) {
		rows := 0
		for i := 0; i < b.N; i++ {
			for _, seg := range rot[i%benchTables] {
				if where == "L1" {
					seg = rot[0][0]
				}
				rows += kernel(seg)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	})
}

func benchKernelsAt[E elem](b *testing.B, width int) {
	// uniform holds values 0..99, so v < pct matches pct% of the rows.
	rng := rand.New(rand.NewSource(14))
	contiguous, scattered := benchRotations[E](rng, func() int64 { return rng.Int63n(100) }, true)
	rotations := []struct {
		where string
		rot   benchBlocks[E]
	}{{"L1", contiguous}, {"cold", contiguous}, {"cold-scattered", scattered}}

	mask := make([]uint32, BlockSize/laneGroup)
	w := fmt.Sprintf("w=%d/", width)
	kinds := map[string]*laneKernels[E]{"/generic": {}}
	if k := hostLanes[E](); k.mask != nil {
		kinds["/simd"] = k
	}
	if width == 8 {
		kinds = map[string]*laneKernels[E]{"": {}}
	}

	for _, r := range rotations {
		for kind, k := range kinds {
			for _, pct := range []int{1, 50, 99} {
				s := newStep(0, OpLt, int64(pct))
				base, span := uint64(s.base), s.span
				at := fmt.Sprintf("/sel=%d", pct)
				benchRun(b, w+"mask"+kind+at, r.where, r.rot, func(seg []E) int {
					fillMask(mask, len(seg))
					kernelSink += runStep(k, seg, base, span, mask)
					return len(seg)
				})
				benchRun(b, w+"mask+fold"+kind+at, r.where, r.rot, func(seg []E) int {
					fillMask(mask, len(seg))
					if n := runStep(k, seg, base, span, mask); n > 0 {
						f := newFold()
						foldSeg(&f, k, seg, 0, mask, n)
						kernelSink += int(f.sum)
					}
					return len(seg)
				})
			}
			benchRun(b, w+"fold"+kind, r.where, r.rot, func(seg []E) int {
				fillMask(mask, len(seg))
				f := newFold()
				foldSeg(&f, k, seg, 0, mask, len(seg))
				kernelSink += int(f.sum)
				return len(seg)
			})
		}
	}
	if width != 8 {
		return
	}

	// half holds benchEqVal in 50% of the rows and distinct values
	// elsewhere, for = and <>.
	half, _ := benchRotations[E](rng, func() int64 {
		if v := rng.Int63n(100); v >= 50 {
			return 1000 + v
		}
		return benchEqVal
	}, false)
	generic := &laneKernels[E]{}
	for _, where := range []string{"L1", "cold"} {
		for _, op := range allOps {
			s, rot := newStep(0, op, 50), contiguous
			switch op {
			case OpEq, OpNe:
				s, rot = newStep(0, op, benchEqVal), half
			case OpLe, OpGt:
				s = newStep(0, op, 49)
			}
			base, span := uint64(s.base), s.span
			benchRun(b, fmt.Sprintf("%smask/op=%s", w, op), where, rot, func(seg []E) int {
				fillMask(mask, len(seg))
				kernelSink += runStep(generic, seg, base, span, mask)
				return len(seg)
			})
		}
	}
}
