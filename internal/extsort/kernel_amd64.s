// The AVX-512 2-way merge body. See kernel_amd64.go for the driver
// that seeds the carry and finishes the tails. One step is a 16-key
// bitonic merger over the 8-key carry (ascending, in Z0) and the next
// 8 keys of the input whose head is smaller: reverse the new vector,
// take the lane-wise min and max against the carry (the first
// half-cleaner of the 16-key merger: both halves are bitonic and
// every min is <= every max), then sort both halves with three
// half-cleaners at distances 4, 2 and 1. Each is a VPERMQ that pairs
// lane i with lane i^d, a VPMAXSQ, and a VPMINSQ merged into the lanes
// whose bit d is clear under an opmask. The low half is emitted, the
// high half is the next carry. The choice of input and the pointer
// advance are CMOVs, so the step is branch-free but for the loop test.

#include "textflag.h"

// VPERMQ index vectors: lane order reversed, and lane i paired with
// lane i^4, i^2 and i^1.
DATA permrev<>+0(SB)/8, $7
DATA permrev<>+8(SB)/8, $6
DATA permrev<>+16(SB)/8, $5
DATA permrev<>+24(SB)/8, $4
DATA permrev<>+32(SB)/8, $3
DATA permrev<>+40(SB)/8, $2
DATA permrev<>+48(SB)/8, $1
DATA permrev<>+56(SB)/8, $0
GLOBL permrev<>(SB), RODATA|NOPTR, $64

DATA perm4<>+0(SB)/8, $4
DATA perm4<>+8(SB)/8, $5
DATA perm4<>+16(SB)/8, $6
DATA perm4<>+24(SB)/8, $7
DATA perm4<>+32(SB)/8, $0
DATA perm4<>+40(SB)/8, $1
DATA perm4<>+48(SB)/8, $2
DATA perm4<>+56(SB)/8, $3
GLOBL perm4<>(SB), RODATA|NOPTR, $64

DATA perm2<>+0(SB)/8, $2
DATA perm2<>+8(SB)/8, $3
DATA perm2<>+16(SB)/8, $0
DATA perm2<>+24(SB)/8, $1
DATA perm2<>+32(SB)/8, $6
DATA perm2<>+40(SB)/8, $7
DATA perm2<>+48(SB)/8, $4
DATA perm2<>+56(SB)/8, $5
GLOBL perm2<>(SB), RODATA|NOPTR, $64

DATA perm1<>+0(SB)/8, $1
DATA perm1<>+8(SB)/8, $0
DATA perm1<>+16(SB)/8, $3
DATA perm1<>+24(SB)/8, $2
DATA perm1<>+32(SB)/8, $5
DATA perm1<>+40(SB)/8, $4
DATA perm1<>+48(SB)/8, $7
DATA perm1<>+56(SB)/8, $6
GLOBL perm1<>(SB), RODATA|NOPTR, $64

// func mergeStepsAVX512(out, a, b *Key, na, nb, steps int, carry *[8]Key) (da, db int)
TEXT ·mergeStepsAVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ na+24(FP), R8
	MOVQ nb+32(FP), R9
	MOVQ steps+40(FP), CX
	MOVQ carry+48(FP), R10
	LEAQ -64(SI)(R8*8), R8 // the last a position with 8 keys left
	LEAQ -64(DX)(R9*8), R9 // the last b position with 8 keys left
	VMOVDQU64 (R10), Z0
	VMOVDQU64 permrev<>(SB), Z28
	VMOVDQU64 perm4<>(SB), Z29
	VMOVDQU64 perm2<>(SB), Z30
	VMOVDQU64 perm1<>(SB), Z31
	MOVL $0x0F, AX // lanes with bit 2 clear
	KMOVW AX, K1
	MOVL $0x33, AX // lanes with bit 1 clear
	KMOVW AX, K2
	MOVL $0x55, AX // lanes with bit 0 clear
	KMOVW AX, K3

step:
	TESTQ CX, CX
	JLE done
	CMPQ SI, R8
	JHI done
	CMPQ DX, R9
	JHI done
	MOVQ (SI), AX   // a's head
	MOVQ (DX), BX   // b's head
	MOVQ SI, R10    // load from a ...
	LEAQ 64(SI), R11
	LEAQ 64(DX), R12
	CMPQ BX, AX
	CMOVQLT DX, R10 // ... unless b's head is smaller
	CMOVQLT R12, DX
	CMOVQGE R11, SI
	VMOVDQU64 (R10), Z1

	VPERMQ Z1, Z28, Z1 // new keys, descending
	VPMINSQ Z1, Z0, Z2 // low half, bitonic
	VPMAXSQ Z1, Z0, Z3 // high half, bitonic

	VPERMQ Z2, Z29, Z4 // distance 4
	VPERMQ Z3, Z29, Z5
	VPMAXSQ Z4, Z2, Z6
	VPMAXSQ Z5, Z3, Z7
	VPMINSQ Z4, Z2, K1, Z6
	VPMINSQ Z5, Z3, K1, Z7

	VPERMQ Z6, Z30, Z4 // distance 2
	VPERMQ Z7, Z30, Z5
	VPMAXSQ Z4, Z6, Z2
	VPMAXSQ Z5, Z7, Z3
	VPMINSQ Z4, Z6, K2, Z2
	VPMINSQ Z5, Z7, K2, Z3

	VPERMQ Z2, Z31, Z4 // distance 1
	VPERMQ Z3, Z31, Z5
	VPMAXSQ Z4, Z2, Z6
	VPMAXSQ Z5, Z3, Z0
	VPMINSQ Z4, Z2, K3, Z6
	VPMINSQ Z5, Z3, K3, Z0 // the next carry

	VMOVDQU64 Z6, (DI)
	ADDQ $64, DI
	DECQ CX
	JMP step

done:
	MOVQ carry+48(FP), R10
	VMOVDQU64 Z0, (R10)
	SUBQ a+8(FP), SI
	SHRQ $3, SI
	MOVQ SI, da+56(FP)
	SUBQ b+16(FP), DX
	SHRQ $3, DX
	MOVQ DX, db+64(FP)
	VZEROUPPER
	RET
