// Vector columnar compare-exchange kernels and the CPUID plumbing that
// gates them. See kernel_amd64.go for the dispatch and the layout
// contract: column pos of a width-w slab is slab[pos*w : (pos+1)*w],
// and comparators are (Lo, Hi) int32 column indices packed 8 bytes
// apart. Every set advances through one comparator per vector step and
// every step is branch-free: the AVX-512 body takes VPMINSQ/VPMAXSQ of
// eight lanes, the AVX2 body builds the lo>hi lane mask with VPCMPGTQ
// and routes each lane's min and max with two VPBLENDVBs over four.
// A width that is not a multiple of the vector runs its last lanes
// under a load/store mask (an opmask, or VPMASKMOVQ), so no lane
// compares and jumps.

#include "textflag.h"

// tailmask<>+32-8t is the VPMASKMOVQ mask whose first t lanes are set.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func applyComparatorsAVX512(slab *simnet.Key, comps *Comparator, n, width int)
TEXT ·applyComparatorsAVX512(SB), NOSPLIT, $0-32
	MOVQ slab+0(FP), DI
	MOVQ comps+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ width+24(FP), BX
	TESTQ DX, DX
	JLE done512
	TESTQ BX, BX
	JLE done512
	MOVQ BX, R13
	ANDQ $-8, R13 // lanes [0, R13) run as whole vectors
	MOVQ BX, CX
	ANDQ $7, CX   // the last CX lanes run under K1
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1

comp512:
	MOVLQSX 0(SI), R8 // c.Lo
	MOVLQSX 4(SI), R9 // c.Hi
	IMULQ BX, R8
	IMULQ BX, R9
	LEAQ (DI)(R8*8), R10 // &slab[Lo*width]
	LEAQ (DI)(R9*8), R11 // &slab[Hi*width]
	XORQ R12, R12        // s = 0
	CMPQ R12, R13
	JGE tail512

vec512:
	VMOVDQU64 (R10)(R12*8), Z0 // lo[s:s+8]
	VMOVDQU64 (R11)(R12*8), Z1 // hi[s:s+8]
	VPMINSQ Z1, Z0, Z2
	VPMAXSQ Z1, Z0, Z3
	VMOVDQU64 Z2, (R10)(R12*8)
	VMOVDQU64 Z3, (R11)(R12*8)
	ADDQ $8, R12
	CMPQ R12, R13
	JLT vec512

tail512:
	TESTQ CX, CX
	JZ next512
	VMOVDQU64.Z (R10)(R12*8), K1, Z0
	VMOVDQU64.Z (R11)(R12*8), K1, Z1
	VPMINSQ Z1, Z0, Z2
	VPMAXSQ Z1, Z0, Z3
	VMOVDQU64 Z2, K1, (R10)(R12*8)
	VMOVDQU64 Z3, K1, (R11)(R12*8)

next512:
	ADDQ $8, SI
	DECQ DX
	JNZ comp512

done512:
	VZEROUPPER
	RET

// func applyComparatorsAVX2(slab *simnet.Key, comps *Comparator, n, width int)
TEXT ·applyComparatorsAVX2(SB), NOSPLIT, $0-32
	MOVQ slab+0(FP), DI
	MOVQ comps+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ width+24(FP), BX
	TESTQ DX, DX
	JLE done2
	TESTQ BX, BX
	JLE done2
	MOVQ BX, R13
	ANDQ $-4, R13 // lanes [0, R13) run as whole vectors
	MOVQ BX, CX
	ANDQ $3, CX   // the last CX lanes run under Y5
	SHLQ $3, CX
	LEAQ tailmask<>+32(SB), AX
	SUBQ CX, AX
	VMOVDQU (AX), Y5

comp2:
	MOVLQSX 0(SI), R8 // c.Lo
	MOVLQSX 4(SI), R9 // c.Hi
	IMULQ BX, R8
	IMULQ BX, R9
	LEAQ (DI)(R8*8), R10 // &slab[Lo*width]
	LEAQ (DI)(R9*8), R11 // &slab[Hi*width]
	XORQ R12, R12        // s = 0
	CMPQ R12, R13
	JGE tail2

vec2:
	VMOVDQU (R10)(R12*8), Y0 // lo[s:s+4]
	VMOVDQU (R11)(R12*8), Y1 // hi[s:s+4]
	VPCMPGTQ Y1, Y0, Y2      // mask: lo > hi (signed per lane)
	VPBLENDVB Y2, Y1, Y0, Y3 // min lanes
	VPBLENDVB Y2, Y0, Y1, Y4 // max lanes
	VMOVDQU Y3, (R10)(R12*8)
	VMOVDQU Y4, (R11)(R12*8)
	ADDQ $4, R12
	CMPQ R12, R13
	JLT vec2

tail2:
	TESTQ CX, CX
	JZ next2
	VPMASKMOVQ (R10)(R12*8), Y5, Y0
	VPMASKMOVQ (R11)(R12*8), Y5, Y1
	VPCMPGTQ Y1, Y0, Y2
	VPBLENDVB Y2, Y1, Y0, Y3
	VPBLENDVB Y2, Y0, Y1, Y4
	VPMASKMOVQ Y3, Y5, (R10)(R12*8)
	VPMASKMOVQ Y4, Y5, (R11)(R12*8)

next2:
	ADDQ $8, SI
	DECQ DX
	JNZ comp2

done2:
	VZEROUPPER
	RET

// func exchangeBitsAVX2(a, b *uint64, n int) (swapped uint64)
//
// The staged pass's 0-1 comparator (stage.go): over n words (n a
// multiple of 8) a[i], b[i] = a[i] AND b[i], a[i] OR b[i], and the
// result ORs a[i] AND NOT b[i] over all i — the lanes that swapped.
TEXT ·exchangeBitsAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ AX, AX
	TESTQ CX, CX
	JLE bitsdone

bitsloop:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU (DI)(AX*8), Y1
	VMOVDQU 32(SI)(AX*8), Y2
	VMOVDQU 32(DI)(AX*8), Y3
	VPANDN Y0, Y1, Y4 // a AND NOT b
	VPANDN Y2, Y3, Y5
	VPOR Y4, Y6, Y6
	VPOR Y5, Y7, Y7
	VPAND Y1, Y0, Y4
	VPOR Y1, Y0, Y0
	VPAND Y3, Y2, Y5
	VPOR Y3, Y2, Y2
	VMOVDQU Y4, (SI)(AX*8)
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y5, 32(SI)(AX*8)
	VMOVDQU Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT bitsloop

bitsdone:
	VPOR Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPOR X7, X6, X6
	VPSHUFD $0x4E, X6, X7
	VPOR X7, X6, X6
	MOVQ X6, AX
	VZEROUPPER
	MOVQ AX, swapped+24(FP)
	RET

// func swapBitsAVX2(a, b *uint64, n int) (lanes uint64)
//
// The staged pass's probe (stage.go): over n words (n a multiple of 8)
// the OR of a[i] AND NOT b[i] — the lanes in which comparator (a, b)
// would swap — with no store.
TEXT ·swapBitsAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ AX, AX
	TESTQ CX, CX
	JLE probedone

probeloop:
	VMOVDQU (DI)(AX*8), Y1
	VMOVDQU 32(DI)(AX*8), Y3
	VPANDN (SI)(AX*8), Y1, Y4 // a AND NOT b
	VPANDN 32(SI)(AX*8), Y3, Y5
	VPOR Y4, Y6, Y6
	VPOR Y5, Y7, Y7
	ADDQ $8, AX
	CMPQ AX, CX
	JLT probeloop

probedone:
	VPOR Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPOR X7, X6, X6
	VPSHUFD $0x4E, X6, X7
	VPOR X7, X6, X6
	MOVQ X6, AX
	VZEROUPPER
	MOVQ AX, lanes+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
