package relq

// The AVX2 lane kernels of kernels_amd64.s, set at package init where the
// CPU has AVX2 and POPCNT and the OS saves the YMM registers.

func selectLanes8(col []uint8, base, span uint8, sel []int32) int
func selectLanes16(col []uint16, base, span uint16, sel []int32) int
func selectLanes32(col []uint32, base, span uint32, sel []int32) int
func countLanes8(col []uint8, base, span uint8) int
func countLanes16(col []uint16, base, span uint16) int
func countLanes32(col []uint32, base, span uint32) int
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// selPerm[b] lists the positions of b's set bits in ascending order: the
// select kernels' selective store (Polychroniou, Raghavan and Ross,
// "Rethinking SIMD Vectorization for In-Memory Databases", SIGMOD 2015).
var selPerm [256][8]int32

func init() {
	// Leaf 1: POPCNT, OSXSAVE, AVX (a CPU with AVX has leaf 7); XCR0: the
	// XMM and YMM state; leaf 7: AVX2.
	const leaf1 = 1<<23 | 1<<27 | 1<<28
	_, _, ecx, _ := cpuid(1, 0)
	_, ebx, _, _ := cpuid(7, 0)
	if ecx&leaf1 != leaf1 || xgetbv()&6 != 6 || ebx&(1<<5) == 0 {
		return
	}
	for b := range selPerm {
		for i, n := int32(0), 0; i < 8; i++ {
			if b>>i&1 == 1 {
				selPerm[b][n], n = i, n+1
			}
		}
	}
	lanes8 = laneKernels[uint8]{selectLanes8, countLanes8}
	lanes16 = laneKernels[uint16]{selectLanes16, countLanes16}
	lanes32 = laneKernels[uint32]{selectLanes32, countLanes32}
}
