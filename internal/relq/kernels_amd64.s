#include "textflag.h"

// The AVX2 lane kernels behind runStep and foldSeg (kernels.go), in the
// style of Polychroniou, Raghavan and Ross, "Rethinking SIMD Vectorization
// for In-Memory Databases" (SIGMOD 2015). Each runs over the first
// len(col) &^ 31 rows of a column segment, 32 rows a pass, and reads or
// writes one mask word a pass: bit i for row i of the pass.
//
// The mask kernels test a lane holding v as d = v - base (mod 2^w) <= span,
// computed as min(d, span) == d with an unsigned min and a compare-equal;
// the pass's 32 results are packed into one mask in AX, ANDed into the
// mask word and counted. Registers:
//
//	SI  the next row's address      CX  passes left
//	DI  the next mask word          DX  bits left set so far
//	Y0  base in every lane          Y1  span in every lane
//
// The fold kernels expand each group of 8, 16 or 32 mask bits to a lane
// mask m (broadcast, AND with the lane's own bit, compare-equal) and fold
// v & m, which is 0 in an unselected lane, into the sum and the maximum,
// and ~v & m into a maximum whose complement is the minimum of v | ~m.
// Registers:
//
//	SI  the next row's address      CX  passes left
//	DI  the next mask word          Y3  the mask bits, broadcast
//	Y8  the sum, in 64-bit lanes (32-bit at 2 bytes)
//	Y9  the maximum of v & m        Y10 the maximum of ~v & m
//	Y11 zero                        Y15 each lane's own bit
//
// Every instruction between the loads and VZEROUPPER is VEX-encoded: one
// legacy SSE instruction there stalls each pass on the AVX-SSE transition.

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

// MASK_AND ANDs the pass's mask in AX into the next mask word, stores it
// and adds its popcount to DX.
#define MASK_AND \
	ANDL    (DI), AX; \
	MOVL    AX, (DI); \
	POPCNTL AX, AX; \
	ADDQ    AX, DX; \
	ADDQ    $4, DI

// FOLD_SETUP loads the fold kernels' pointers and pass count, clears the
// accumulators and loads the lanes' bits.
#define FOLD_SETUP(bits) \
	MOVQ    col_base+0(FP), SI; \
	MOVQ    col_len+8(FP), CX; \
	MOVQ    mask_base+24(FP), DI; \
	VPXOR   Y8, Y8, Y8; \
	VPXOR   Y9, Y9, Y9; \
	VPXOR   Y10, Y10, Y10; \
	VPXOR   Y11, Y11, Y11; \
	VMOVDQU bits, Y15; \
	SHRQ    $5, CX

// LANEMASK leaves in Y4 the lane mask of the bits in Y3.
#define LANEMASK(cmp) \
	VPAND Y15, Y3, Y4; \
	cmp   Y15, Y4, Y4

// MAXMIN folds the rows in Y2 under the lane mask in Y4 into the
// extrema, leaving v & m in Y5.
#define MAXMIN(max) \
	VPAND  Y2, Y4, Y5; \
	VPANDN Y4, Y2, Y6; \
	max    Y5, Y9, Y9; \
	max    Y6, Y10, Y10

// HMAX leaves the unsigned maximum of y's doublewords in x's low
// doubleword (and of its words or bytes, max at that width, once the
// caller folds the low doubleword's halves).
#define HMAX(max, y, x) \
	VEXTRACTI128 $1, y, X2; \
	max          X2, x, x; \
	VPSHUFD      $0x4e, x, X2; \
	max          X2, x, x; \
	VPSHUFD      $0xb1, x, X2; \
	max          X2, x, x

// FOLD16 folds the 16 uint16 rows at off(SI), whose mask bits are the
// word at moff(DI). Each 32-bit lane of the sum takes 2 rows of 16, so
// over a block it holds at most 256 x 65535 < 2^24.
#define FOLD16(off, moff) \
	VPBROADCASTW moff(DI), Y3; \
	LANEMASK(VPCMPEQW); \
	VMOVDQU      off(SI), Y2; \
	MAXMIN(VPMAXUW); \
	VPUNPCKLWD   Y11, Y5, Y6; \
	VPUNPCKHWD   Y11, Y5, Y5; \
	VPADDD       Y6, Y8, Y8; \
	VPADDD       Y5, Y8, Y8

// FOLD32 folds the 8 uint32 rows at off(SI), whose mask bits are the low
// 8 of Y3, and shifts the next 8 bits down.
#define FOLD32(off) \
	LANEMASK(VPCMPEQD); \
	VPSRLD     $8, Y3, Y3; \
	VMOVDQU    off(SI), Y2; \
	MAXMIN(VPMAXUD); \
	VPUNPCKLDQ Y11, Y5, Y6; \
	VPUNPCKHDQ Y11, Y5, Y5; \
	VPADDQ     Y6, Y8, Y8; \
	VPADDQ     Y5, Y8, Y8

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

// bits8, bits16 and bits32 hold in each lane of their width its own bit
// of the 8, 16 or 8 mask bits the lanes' rows take: 1, 2, 4, ...
DATA bits8<>+0(SB)/8, $0x8040201008040201
DATA bits8<>+8(SB)/8, $0x8040201008040201
DATA bits8<>+16(SB)/8, $0x8040201008040201
DATA bits8<>+24(SB)/8, $0x8040201008040201
GLOBL bits8<>(SB), RODATA|NOPTR, $32

DATA bits16<>+0(SB)/8, $0x0008000400020001
DATA bits16<>+8(SB)/8, $0x0080004000200010
DATA bits16<>+16(SB)/8, $0x0800040002000100
DATA bits16<>+24(SB)/8, $0x8000400020001000
GLOBL bits16<>(SB), RODATA|NOPTR, $32

DATA bits32<>+0(SB)/8, $0x0000000200000001
DATA bits32<>+8(SB)/8, $0x0000000800000004
DATA bits32<>+16(SB)/8, $0x0000002000000010
DATA bits32<>+24(SB)/8, $0x0000008000000040
GLOBL bits32<>(SB), RODATA|NOPTR, $32

// spread8 is the VPSHUFB control that copies byte k of a broadcast mask
// word into byte lanes 8k to 8k+7 (the shuffle stays inside each 128-bit
// half, and both halves hold the word).
DATA spread8<>+0(SB)/8, $0x0000000000000000
DATA spread8<>+8(SB)/8, $0x0101010101010101
DATA spread8<>+16(SB)/8, $0x0202020202020202
DATA spread8<>+24(SB)/8, $0x0303030303030303
GLOBL spread8<>(SB), RODATA|NOPTR, $32

// func maskLanes8(col []uint8, base uint8, span uint8, mask []uint32) int
TEXT ·maskLanes8(SB), NOSPLIT, $0-64
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVQ         mask_base+32(FP), DI
	VPBROADCASTB base+24(FP), Y0
	VPBROADCASTB span+25(FP), Y1
	XORQ         DX, DX
	SHRQ         $5, CX
	JZ           mask8done

mask8loop:
	MATCH8(0)
	VPMOVMSKB Y4, AX
	MASK_AND
	ADDQ      $32, SI
	DECQ      CX
	JNZ       mask8loop

mask8done:
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// func maskLanes16(col []uint16, base uint16, span uint16, mask []uint32) int
TEXT ·maskLanes16(SB), NOSPLIT, $0-64
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVQ         mask_base+32(FP), DI
	VPBROADCASTW base+24(FP), Y0
	VPBROADCASTW span+26(FP), Y1
	XORQ         DX, DX
	SHRQ         $5, CX
	JZ           mask16done

mask16loop:
	PACK16
	VPERMQ    $0xd8, Y4, Y4
	VPMOVMSKB Y4, AX
	MASK_AND
	ADDQ      $64, SI
	DECQ      CX
	JNZ       mask16loop

mask16done:
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// func maskLanes32(col []uint32, base uint32, span uint32, mask []uint32) int
TEXT ·maskLanes32(SB), NOSPLIT, $0-64
	MOVQ         col_base+0(FP), SI
	MOVQ         col_len+8(FP), CX
	MOVQ         mask_base+32(FP), DI
	MOVL         base+24(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	MOVL         span+28(FP), AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1
	VMOVDQU      unpack32<>(SB), Y10
	XORQ         DX, DX
	SHRQ         $5, CX
	JZ           mask32done

mask32loop:
	PACK32
	VPERMD    Y4, Y10, Y4
	VPMOVMSKB Y4, AX
	MASK_AND
	ADDQ      $128, SI
	DECQ      CX
	JNZ       mask32loop

mask32done:
	VZEROUPPER
	MOVQ DX, ret+56(FP)
	RET

// func foldLanes8(col []uint8, mask []uint32) (sum uint64, lo uint8, hi uint8)
TEXT ·foldLanes8(SB), NOSPLIT, $0-58
	FOLD_SETUP(bits8<>(SB))
	VMOVDQU spread8<>(SB), Y14
	JZ      fold8done

fold8loop:
	VPBROADCASTD (DI), Y3
	VPSHUFB      Y14, Y3, Y3
	LANEMASK(VPCMPEQB)
	VMOVDQU      (SI), Y2
	MAXMIN(VPMAXUB)
	VPSADBW      Y11, Y5, Y5
	VPADDQ       Y5, Y8, Y8
	ADDQ         $32, SI
	ADDQ         $4, DI
	DECQ         CX
	JNZ          fold8loop

fold8done:
	HMAX(VPMAXUB, Y9, X9)
	VPSRLD       $16, X9, X2
	VPMAXUB      X2, X9, X9
	VPSRLD       $8, X9, X2
	VPMAXUB      X2, X9, X9
	VMOVD        X9, AX
	MOVB         AX, hi+57(FP)
	HMAX(VPMAXUB, Y10, X10)
	VPSRLD       $16, X10, X2
	VPMAXUB      X2, X10, X10
	VPSRLD       $8, X10, X2
	VPMAXUB      X2, X10, X10
	VMOVD        X10, AX
	NOTL         AX
	MOVB         AX, lo+56(FP)
	VEXTRACTI128 $1, Y8, X2
	VPADDQ       X2, X8, X8
	VPSHUFD      $0x4e, X8, X2
	VPADDQ       X2, X8, X8
	VMOVQ        X8, AX
	MOVQ         AX, sum+48(FP)
	VZEROUPPER
	RET

// func foldLanes16(col []uint16, mask []uint32) (sum uint64, lo uint16, hi uint16)
TEXT ·foldLanes16(SB), NOSPLIT, $0-60
	FOLD_SETUP(bits16<>(SB))
	JZ fold16done

fold16loop:
	FOLD16(0, 0)
	FOLD16(32, 2)
	ADDQ $64, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  fold16loop

fold16done:
	HMAX(VPMAXUW, Y9, X9)
	VPSRLD       $16, X9, X2
	VPMAXUW      X2, X9, X9
	VMOVD        X9, AX
	MOVW         AX, hi+58(FP)
	HMAX(VPMAXUW, Y10, X10)
	VPSRLD       $16, X10, X2
	VPMAXUW      X2, X10, X10
	VMOVD        X10, AX
	NOTL         AX
	MOVW         AX, lo+56(FP)
	VEXTRACTI128 $1, Y8, X2
	VPADDD       X2, X8, X8
	VPSHUFD      $0x4e, X8, X2
	VPADDD       X2, X8, X8
	VPSHUFD      $0xb1, X8, X2
	VPADDD       X2, X8, X8
	VMOVD        X8, AX
	MOVQ         AX, sum+48(FP)
	VZEROUPPER
	RET

// func foldLanes32(col []uint32, mask []uint32) (sum uint64, lo uint32, hi uint32)
TEXT ·foldLanes32(SB), NOSPLIT, $0-64
	FOLD_SETUP(bits32<>(SB))
	JZ fold32done

fold32loop:
	VPBROADCASTD (DI), Y3
	FOLD32(0)
	FOLD32(32)
	FOLD32(64)
	FOLD32(96)
	ADDQ         $128, SI
	ADDQ         $4, DI
	DECQ         CX
	JNZ          fold32loop

fold32done:
	HMAX(VPMAXUD, Y9, X9)
	VMOVD        X9, AX
	MOVL         AX, hi+60(FP)
	HMAX(VPMAXUD, Y10, X10)
	VMOVD        X10, AX
	NOTL         AX
	MOVL         AX, lo+56(FP)
	VEXTRACTI128 $1, Y8, X2
	VPADDQ       X2, X8, X8
	VPSHUFD      $0x4e, X8, X2
	VPADDQ       X2, X8, X8
	VMOVQ        X8, AX
	MOVQ         AX, sum+48(FP)
	VZEROUPPER
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
