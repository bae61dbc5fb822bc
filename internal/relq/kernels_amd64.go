package relq

// The AVX2 lane kernels of kernels_amd64.s, set at package init where the
// CPU has AVX2 and POPCNT and the OS saves the YMM registers.

func maskLanes8(col []uint8, base, span uint8, mask []uint32) int
func maskLanes16(col []uint16, base, span uint16, mask []uint32) int
func maskLanes32(col []uint32, base, span uint32, mask []uint32) int
func foldLanes8(col []uint8, mask []uint32) (sum uint64, lo, hi uint8)
func foldLanes16(col []uint16, mask []uint32) (sum uint64, lo, hi uint16)
func foldLanes32(col []uint32, mask []uint32) (sum uint64, lo, hi uint32)
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

func init() {
	// Leaf 1: POPCNT, OSXSAVE, AVX (a CPU with AVX has leaf 7); XCR0: the
	// XMM and YMM state; leaf 7: AVX2.
	const leaf1 = 1<<23 | 1<<27 | 1<<28
	_, _, ecx, _ := cpuid(1, 0)
	_, ebx, _, _ := cpuid(7, 0)
	if ecx&leaf1 != leaf1 || xgetbv()&6 != 6 || ebx&(1<<5) == 0 {
		return
	}
	lanes8 = laneKernels[uint8]{maskLanes8, foldLanes8}
	lanes16 = laneKernels[uint16]{maskLanes16, foldLanes16}
	lanes32 = laneKernels[uint32]{maskLanes32, foldLanes32}
}
