#include "textflag.h"

// The AVX2 lane kernels behind selBlock and countBlock (kernels.go). Each
// runs over the first len(col) &^ 31 rows of a column segment, 32 rows a
// pass. A lane holding v matches iff d = v - base (mod 2^w) is at most
// span, tested as min(d, span) == d with an unsigned min and a
// compare-equal; the pass's 32 results are packed into one mask in AX,
// bit i for row i of the pass. Registers shared by the kernels:
//
//	SI  the next row's address      CX  passes left
//	Y0  base in every lane          Y1  span in every lane
//	DX  matches so far (select: row indices written to sel)
//
// and by the select kernels:
//
//	DI  sel                         R8  ·selPerm
//	Y2  the current 8 rows' first index in every int32 lane
//	Y3  8 in every int32 lane

// SELECT_SETUP clears the match count and loads the select kernels'
// constants.
#define SELECT_SETUP \
	XORQ         DX, DX; \
	LEAQ         ·selPerm(SB), R8; \
	VPXOR        Y2, Y2, Y2; \
	MOVL         $8, BX; \
	MOVQ         BX, X3; \
	VPBROADCASTD X3, Y3

// SELECT8 stores the rows of the mask's low byte: ·selPerm[b] lists the
// positions of b's set bits in ascending order, so adding the 8 rows'
// first index gives their row indices. All 8 lanes are stored at sel[n:]
// and n advances by popcount(b); the lanes past it are overwritten by the
// next store or lie past the result. n is at most the first row's index,
// so the store stays inside the pass's rows of sel.
#define SELECT8 \
	MOVBLZX AX, BX; \
	POPCNTL BX, R9; \
	SHLL    $5, BX; \
	VPADDD  (R8)(BX*1), Y2, Y6; \
	VMOVDQU Y6, (DI)(DX*4); \
	ADDQ    R9, DX; \
	VPADDD  Y3, Y2, Y2; \
	SHRL    $8, AX

#define SELECT32 SELECT8; SELECT8; SELECT8; SELECT8

// MATCH8 leaves in Y4 the lane test of the 32 uint8 rows at off(SI).
#define MATCH8(off) \
	VMOVDQU   off(SI), Y4; \
	VPSUBB    Y0, Y4, Y4; \
	VPMINUB   Y1, Y4, Y5; \
	VPCMPEQB  Y5, Y4, Y4

#define MATCH16(off, y, tmp) \
	VMOVDQU   off(SI), y; \
	VPSUBW    Y0, y, y; \
	VPMINUW   Y1, y, tmp; \
	VPCMPEQW  tmp, y, y

#define MATCH32(off, y, tmp) \
	VMOVDQU   off(SI), y; \
	VPSUBD    Y0, y, y; \
	VPMINUD   Y1, y, tmp; \
	VPCMPEQD  tmp, y, y

// PACK16 packs the word results of 32 uint16 rows (Y4: rows 0-15, Y5:
// 16-31) to one byte each. VPACKSSWB packs per 128-bit lane, so the
// quadwords come out as rows 0-7, 16-23, 8-15, 24-31.
#define PACK16 \
	MATCH16(0, Y4, Y6); \
	MATCH16(32, Y5, Y7); \
	VPACKSSWB Y5, Y4, Y4

// PACK32 packs the doubleword results of 32 uint32 rows to one byte
// each; the doublewords come out as rows 0-3, 8-11, 16-19, 24-27, 4-7,
// 12-15, 20-23, 28-31.
#define PACK32 \
	MATCH32(0, Y4, Y8); \
	MATCH32(32, Y5, Y9); \
	MATCH32(64, Y6, Y8); \
	MATCH32(96, Y7, Y9); \
	VPACKSSDW Y5, Y4, Y4; \
	VPACKSSDW Y7, Y6, Y6; \
	VPACKSSWB Y6, Y4, Y4

// unpack32 is the doubleword order that puts PACK32's rows back in order.
DATA unpack32<>+0(SB)/4, $0
DATA unpack32<>+4(SB)/4, $4
DATA unpack32<>+8(SB)/4, $1
DATA unpack32<>+12(SB)/4, $5
DATA unpack32<>+16(SB)/4, $2
DATA unpack32<>+20(SB)/4, $6
DATA unpack32<>+24(SB)/4, $3
DATA unpack32<>+28(SB)/4, $7
GLOBL unpack32<>(SB), RODATA|NOPTR, $32

// func selectLanes8(col []uint8, base uint8, span uint8, sel []int32) int
TEXT ·selectLanes8(SB), NOSPLIT, $0-64
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVQ         sel_base+32(FP), DI
	VPBROADCASTB base+24(FP), Y0
	VPBROADCASTB span+25(FP), Y1
	SELECT_SETUP
	SHRQ         $5, CX
	JZ           sel8done

sel8loop:
	MATCH8(0)
	VPMOVMSKB Y4, AX
	SELECT32
	ADDQ      $32, SI
	DECQ      CX
	JNZ       sel8loop

sel8done:
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// func selectLanes16(col []uint16, base uint16, span uint16, sel []int32) int
TEXT ·selectLanes16(SB), NOSPLIT, $0-64
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVQ         sel_base+32(FP), DI
	VPBROADCASTW base+24(FP), Y0
	VPBROADCASTW span+26(FP), Y1
	SELECT_SETUP
	SHRQ         $5, CX
	JZ           sel16done

sel16loop:
	PACK16
	VPERMQ    $0xd8, Y4, Y4
	VPMOVMSKB Y4, AX
	SELECT32
	ADDQ      $64, SI
	DECQ      CX
	JNZ       sel16loop

sel16done:
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// func selectLanes32(col []uint32, base uint32, span uint32, sel []int32) int
TEXT ·selectLanes32(SB), NOSPLIT, $0-64
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVQ         sel_base+32(FP), DI
	MOVL         base+24(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	MOVL         span+28(FP), AX
	MOVQ         AX, X1
	VPBROADCASTD X1, Y1
	VMOVDQU      unpack32<>(SB), Y10
	SELECT_SETUP
	SHRQ         $5, CX
	JZ           sel32done

sel32loop:
	PACK32
	VPERMD    Y4, Y10, Y4
	VPMOVMSKB Y4, AX
	SELECT32
	ADDQ      $128, SI
	DECQ      CX
	JNZ       sel32loop

sel32done:
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// The count kernels add up the masks' popcounts; row order does not
// matter to a count, so the packed masks are not reordered.

// func countLanes8(col []uint8, base uint8, span uint8) int
TEXT ·countLanes8(SB), NOSPLIT, $0-40
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	VPBROADCASTB base+24(FP), Y0
	VPBROADCASTB span+25(FP), Y1
	XORQ         DX, DX
	SHRQ         $5, CX
	JZ           count8done

count8loop:
	MATCH8(0)
	VPMOVMSKB Y4, AX
	POPCNTL   AX, AX
	ADDQ      AX, DX
	ADDQ      $32, SI
	DECQ      CX
	JNZ       count8loop

count8done:
	VZEROUPPER
	MOVQ DX, ret+32(FP)
	RET

// func countLanes16(col []uint16, base uint16, span uint16) int
TEXT ·countLanes16(SB), NOSPLIT, $0-40
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	VPBROADCASTW base+24(FP), Y0
	VPBROADCASTW span+26(FP), Y1
	XORQ         DX, DX
	SHRQ         $5, CX
	JZ           count16done

count16loop:
	PACK16
	VPMOVMSKB Y4, AX
	POPCNTL   AX, AX
	ADDQ      AX, DX
	ADDQ      $64, SI
	DECQ      CX
	JNZ       count16loop

count16done:
	VZEROUPPER
	MOVQ DX, ret+32(FP)
	RET

// func countLanes32(col []uint32, base uint32, span uint32) int
TEXT ·countLanes32(SB), NOSPLIT, $0-40
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVL         base+24(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	MOVL         span+28(FP), AX
	MOVQ         AX, X1
	VPBROADCASTD X1, Y1
	XORQ         DX, DX
	SHRQ         $5, CX
	JZ           count32done

count32loop:
	PACK32
	VPMOVMSKB Y4, AX
	POPCNTL   AX, AX
	ADDQ      AX, DX
	ADDQ      $128, SI
	DECQ      CX
	JNZ       count32loop

count32done:
	VZEROUPPER
	MOVQ DX, ret+32(FP)
	RET

// func cpuid(leaf uint32, sub uint32) (eax uint32, ebx uint32, ecx uint32, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
