//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 reconstruct kernels. Each rebuilds the k-lane window count vector
//
//	vec[c] = int32(row[c]) + ((group >> 4c) & 15) - base[c]
//
// by broadcasting the packed nibble group, variable-shifting each dword
// lane by its own nibble offset, masking, adding the checkpoint row,
// subtracting the base, and sign-extend widening the int32 results to the
// int64 lanes the index's []int vectors expect. All arithmetic is exact
// integer arithmetic; intermediate values fit int32 because cumulative
// counts are bounded by the corpus length (< 2^31) and final lanes are
// counts in [0, 2^31), so results are bit-identical to the scalar
// reference.

// Per-lane right-shift counts selecting nibble c of the group dword.
DATA nibshift<>+0(SB)/4, $0
DATA nibshift<>+4(SB)/4, $4
DATA nibshift<>+8(SB)/4, $8
DATA nibshift<>+12(SB)/4, $12
DATA nibshift<>+16(SB)/4, $16
DATA nibshift<>+20(SB)/4, $20
DATA nibshift<>+24(SB)/4, $24
DATA nibshift<>+28(SB)/4, $28
GLOBL nibshift<>(SB), RODATA|NOPTR, $32

// 0x0F in every dword lane.
DATA nibmask<>+0(SB)/8, $0x0000000F0000000F
DATA nibmask<>+8(SB)/8, $0x0000000F0000000F
DATA nibmask<>+16(SB)/8, $0x0000000F0000000F
DATA nibmask<>+24(SB)/8, $0x0000000F0000000F
GLOBL nibmask<>(SB), RODATA|NOPTR, $32

// func reconK8AVX2(row *uint32, base *int32, group uint64, vec *int)
TEXT ·reconK8AVX2(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), AX
	MOVQ base+8(FP), BX
	MOVQ group+16(FP), CX
	MOVQ vec+24(FP), DX

	VMOVD        CX, X0                // low 32 bits hold the 8 nibbles
	VPBROADCASTD X0, Y0
	VPSRLVD      nibshift<>(SB), Y0, Y0
	VPAND        nibmask<>(SB), Y0, Y0 // nibbles in dword lanes
	VMOVDQU      (AX), Y1              // row: 8 x uint32
	VPADDD       Y1, Y0, Y0
	VMOVDQU      (BX), Y2              // base: 8 x int32
	VPSUBD       Y2, Y0, Y0            // y: 8 x int32
	VPMOVSXDQ    X0, Y3                // lanes 0..3 to int64
	VEXTRACTI128 $1, Y0, X4
	VPMOVSXDQ    X4, Y4                // lanes 4..7 to int64
	VMOVDQU      Y3, (DX)
	VMOVDQU      Y4, 32(DX)
	VZEROUPPER
	RET

// func reconK16AVX2(row *uint32, base *int32, group uint64, vec *int)
TEXT ·reconK16AVX2(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), AX
	MOVQ base+8(FP), BX
	MOVQ group+16(FP), CX
	MOVQ vec+24(FP), DX

	VMOVD        CX, X0                // low dword: nibbles 0..7
	VPBROADCASTD X0, Y0
	MOVQ         CX, R8
	SHRQ         $32, R8
	VMOVD        R8, X5                // high dword: nibbles 8..15
	VPBROADCASTD X5, Y5
	VMOVDQU      nibshift<>(SB), Y6
	VMOVDQU      nibmask<>(SB), Y7
	VPSRLVD      Y6, Y0, Y0
	VPSRLVD      Y6, Y5, Y5
	VPAND        Y7, Y0, Y0
	VPAND        Y7, Y5, Y5
	VPADDD       (AX), Y0, Y0          // + row lanes 0..7
	VPADDD       32(AX), Y5, Y5        // + row lanes 8..15
	VPSUBD       (BX), Y0, Y0          // - base lanes 0..7
	VPSUBD       32(BX), Y5, Y5        // - base lanes 8..15
	VPMOVSXDQ    X0, Y3
	VEXTRACTI128 $1, Y0, X4
	VPMOVSXDQ    X4, Y4
	VMOVDQU      Y3, (DX)
	VMOVDQU      Y4, 32(DX)
	VPMOVSXDQ    X5, Y3
	VEXTRACTI128 $1, Y5, X4
	VPMOVSXDQ    X4, Y4
	VMOVDQU      Y3, 64(DX)
	VMOVDQU      Y4, 96(DX)
	VZEROUPPER
	RET
