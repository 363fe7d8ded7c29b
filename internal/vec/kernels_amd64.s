//go:build amd64

#include "textflag.h"

// Handwritten SIMD kernels. The binding contract (kernels.go): element i
// of the difference feeds float32 lane i&3, lanes combine as
// (s0+s1)+(s2+s3), widen to float64 last, no FMA. One 128-bit register is
// the four accumulators; unrolled blocks accumulate in ascending element
// order so the per-lane addition order matches the portable kernels
// exactly. The AVX2 kernel widens throughput by processing two *rows* per
// 256-bit register — one independent 4-lane scheme per 128-bit half —
// never by adding lanes to a single row's accumulation.

// func sqDistsToSSE2(q, backing []float32, dims, rows int, out []float64)
//
// SI = q base, DX = current row, CX = dims, BX = rows left, DI = out.
// R11 = dims&^7 (8-wide prefix), R8 = dims&^3 (4-wide prefix), R9 = index.
TEXT ·sqDistsToSSE2(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), SI
	MOVQ backing_base+24(FP), DX
	MOVQ dims+48(FP), CX
	MOVQ rows+56(FP), BX
	MOVQ out_base+64(FP), DI
	MOVQ CX, R8
	ANDQ $-4, R8
	MOVQ CX, R11
	ANDQ $-8, R11

rowloop:
	TESTQ BX, BX
	JZ    done
	PREFETCHT0 3072(DX)      // 3 KB ahead; at the 96-byte stride of 24-d
	PREFETCHT0 3120(DX)      // rows, two hints 48 apart miss no line
	XORPS X0, X0             // X0 = [s0 s1 s2 s3]
	XORQ  R9, R9

loop8:
	CMPQ   R9, R11
	JGE    loop4
	MOVUPS (SI)(R9*4), X1
	MOVUPS (DX)(R9*4), X2
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0
	MOVUPS 16(SI)(R9*4), X1
	MOVUPS 16(DX)(R9*4), X2
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0
	ADDQ   $8, R9
	JMP    loop8

loop4:
	CMPQ   R9, R8
	JGE    tail
	MOVUPS (SI)(R9*4), X1
	MOVUPS (DX)(R9*4), X2
	SUBPS  X2, X1
	MULPS  X1, X1
	ADDPS  X1, X0
	ADDQ   $4, R9

tail:
	CMPQ  R9, CX
	JGE   reduce
	MOVSS (SI)(R9*4), X1
	MOVSS (DX)(R9*4), X2
	SUBSS X2, X1
	MULSS X1, X1
	ADDSS X1, X0             // tail elements all feed lane 0
	INCQ  R9
	JMP   tail

reduce:
	// lane0 = (s0+s1)+(s2+s3), then widen to float64.
	MOVAPS   X0, X1
	SHUFPS   $0xB1, X1, X1   // [s1 s0 s3 s2]
	ADDPS    X1, X0          // [s0+s1 . s2+s3 .]
	MOVHLPS  X0, X1          // X1 lane0 = s2+s3
	ADDSS    X1, X0
	CVTSS2SD X0, X0
	MOVSD    X0, (DI)
	ADDQ     $8, DI
	LEAQ     (DX)(CX*4), DX  // next row
	DECQ     BX
	JMP      rowloop

done:
	RET

// func sqDistsToAVX2(q, backing []float32, dims, rows int, out []float64)
//
// Row-pair kernel: Y-register = [row i lanes | row i+1 lanes], the query
// block broadcast to both halves, so each half runs the exact 128-bit
// 4-lane scheme of the portable kernel. dims==24 (the paper's descriptor
// width) additionally hoists all six query blocks into Y10-Y15 once per
// call and fully unrolls the six-block row-pair body.
TEXT ·sqDistsToAVX2(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), SI
	MOVQ backing_base+24(FP), DX
	MOVQ dims+48(FP), CX
	MOVQ rows+56(FP), BX
	MOVQ out_base+64(FP), DI
	MOVQ CX, R8
	ANDQ $-4, R8

	CMPQ CX, $24
	JEQ  init24

pairloop:
	CMPQ   BX, $2
	JL     single
	LEAQ   (DX)(CX*4), R10   // R10 = row i+1
	VXORPS Y0, Y0, Y0
	XORQ   R9, R9

pv4:
	CMPQ           R9, R8
	JGE            ptail
	VBROADCASTF128 (SI)(R9*4), Y1
	VMOVUPS        (DX)(R9*4), X2
	VINSERTF128    $1, (R10)(R9*4), Y2, Y2
	VSUBPS         Y2, Y1, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	ADDQ           $4, R9
	JMP            pv4

ptail:
	VEXTRACTF128 $1, Y0, X5  // X5 = row i+1 accumulators; X0 = row i

ptailloop:
	CMPQ   R9, CX
	JGE    preduce
	VMOVSS (SI)(R9*4), X1
	VMOVSS (DX)(R9*4), X2
	VSUBSS X2, X1, X2
	VMULSS X2, X2, X2
	VADDSS X2, X0, X0
	VMOVSS (R10)(R9*4), X2
	VSUBSS X2, X1, X2
	VMULSS X2, X2, X2
	VADDSS X2, X5, X5
	INCQ   R9
	JMP    ptailloop

preduce:
	VSHUFPS   $0xB1, X0, X0, X1
	VADDPS    X1, X0, X0
	VSHUFPS   $0xEE, X0, X0, X1
	VADDSS    X1, X0, X0
	VCVTSS2SD X0, X0, X0
	VMOVSD    X0, (DI)
	VSHUFPS   $0xB1, X5, X5, X1
	VADDPS    X1, X5, X5
	VSHUFPS   $0xEE, X5, X5, X1
	VADDSS    X1, X5, X5
	VCVTSS2SD X5, X5, X5
	VMOVSD    X5, 8(DI)
	ADDQ      $16, DI
	LEAQ      (R10)(CX*4), DX
	SUBQ      $2, BX
	JMP       pairloop

init24:
	// Hoist the 24-d query into Y10-Y15, each block in both halves.
	VBROADCASTF128 (SI), Y10
	VBROADCASTF128 16(SI), Y11
	VBROADCASTF128 32(SI), Y12
	VBROADCASTF128 48(SI), Y13
	VBROADCASTF128 64(SI), Y14
	VBROADCASTF128 80(SI), Y15

pair24:
	CMPQ        BX, $2
	JL          single
	PREFETCHT0  3072(DX)     // the three lines a row pair covers, 3 KB ahead
	PREFETCHT0  3136(DX)
	PREFETCHT0  3200(DX)
	LEAQ        96(DX), R10
	VMOVUPS     (DX), X2
	VINSERTF128 $1, (R10), Y2, Y2
	VSUBPS      Y2, Y10, Y1
	VMULPS      Y1, Y1, Y0   // block 0 initializes the accumulators
	VMOVUPS     16(DX), X2
	VINSERTF128 $1, 16(R10), Y2, Y2
	VSUBPS      Y2, Y11, Y1
	VMULPS      Y1, Y1, Y1
	VADDPS      Y1, Y0, Y0
	VMOVUPS     32(DX), X2
	VINSERTF128 $1, 32(R10), Y2, Y2
	VSUBPS      Y2, Y12, Y1
	VMULPS      Y1, Y1, Y1
	VADDPS      Y1, Y0, Y0
	VMOVUPS     48(DX), X2
	VINSERTF128 $1, 48(R10), Y2, Y2
	VSUBPS      Y2, Y13, Y1
	VMULPS      Y1, Y1, Y1
	VADDPS      Y1, Y0, Y0
	VMOVUPS     64(DX), X2
	VINSERTF128 $1, 64(R10), Y2, Y2
	VSUBPS      Y2, Y14, Y1
	VMULPS      Y1, Y1, Y1
	VADDPS      Y1, Y0, Y0
	VMOVUPS     80(DX), X2
	VINSERTF128 $1, 80(R10), Y2, Y2
	VSUBPS      Y2, Y15, Y1
	VMULPS      Y1, Y1, Y1
	VADDPS      Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X5
	VSHUFPS   $0xB1, X0, X0, X1
	VADDPS    X1, X0, X0
	VSHUFPS   $0xEE, X0, X0, X1
	VADDSS    X1, X0, X0
	VCVTSS2SD X0, X0, X0
	VMOVSD    X0, (DI)
	VSHUFPS   $0xB1, X5, X5, X1
	VADDPS    X1, X5, X5
	VSHUFPS   $0xEE, X5, X5, X1
	VADDSS    X1, X5, X5
	VCVTSS2SD X5, X5, X5
	VMOVSD    X5, 8(DI)
	ADDQ      $16, DI
	LEAQ      192(DX), DX
	SUBQ      $2, BX
	JMP       pair24

single:
	TESTQ  BX, BX
	JZ     adone
	VXORPS X0, X0, X0
	XORQ   R9, R9

sv4:
	CMPQ    R9, R8
	JGE     stail
	VMOVUPS (SI)(R9*4), X1
	VMOVUPS (DX)(R9*4), X2
	VSUBPS  X2, X1, X1
	VMULPS  X1, X1, X1
	VADDPS  X1, X0, X0
	ADDQ    $4, R9
	JMP     sv4

stail:
	CMPQ   R9, CX
	JGE    sreduce
	VMOVSS (SI)(R9*4), X1
	VMOVSS (DX)(R9*4), X2
	VSUBSS X2, X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X0, X0
	INCQ   R9
	JMP    stail

sreduce:
	VSHUFPS   $0xB1, X0, X0, X1
	VADDPS    X1, X0, X0
	VSHUFPS   $0xEE, X0, X0, X1
	VADDSS    X1, X0, X0
	VCVTSS2SD X0, X0, X0
	VMOVSD    X0, (DI)

adone:
	VZEROUPPER
	RET

// func sqDistsMultiPairAVX2(q0, q1, backing []float32, dims, rows int, out0, out1 []float64)
//
// Query-pair kernel, the transpose of sqDistsToAVX2's row pairing: the
// Y-register is [query 0 lanes | query 1 lanes] against ONE row block
// broadcast to both halves, so each 128-bit half still runs the exact
// 4-lane scheme of the portable kernel and both distances of the pair
// are bit-identical to per-query calls — but every row block is loaded
// once for two queries, halving row traffic for batch groups. dims==24
// hoists all six blocks of both queries into Y10-Y15 once per call and
// fully unrolls the six-block row body.
//
// SI = q0, R12 = q1, DX = current row, CX = dims, BX = rows left,
// DI = out0, R13 = out1, R8 = dims&^3, R9 = element index.
TEXT ·sqDistsMultiPairAVX2(SB), NOSPLIT, $0-136
	MOVQ q0_base+0(FP), SI
	MOVQ q1_base+24(FP), R12
	MOVQ backing_base+48(FP), DX
	MOVQ dims+72(FP), CX
	MOVQ rows+80(FP), BX
	MOVQ out0_base+88(FP), DI
	MOVQ out1_base+112(FP), R13
	MOVQ CX, R8
	ANDQ $-4, R8

	CMPQ CX, $24
	JEQ  minit24

mrowloop:
	TESTQ  BX, BX
	JZ     mdone
	VXORPS Y0, Y0, Y0
	XORQ   R9, R9

mv4:
	CMPQ           R9, R8
	JGE            mtail
	VMOVUPS        (SI)(R9*4), X1
	VINSERTF128    $1, (R12)(R9*4), Y1, Y1
	VBROADCASTF128 (DX)(R9*4), Y2
	VSUBPS         Y2, Y1, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	ADDQ           $4, R9
	JMP            mv4

mtail:
	VEXTRACTF128 $1, Y0, X5  // X5 = query 1 accumulators; X0 = query 0

mtailloop:
	CMPQ   R9, CX
	JGE    mreduce
	VMOVSS (DX)(R9*4), X2
	VMOVSS (SI)(R9*4), X1
	VSUBSS X2, X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X0, X0
	VMOVSS (R12)(R9*4), X1
	VSUBSS X2, X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X5, X5
	INCQ   R9
	JMP    mtailloop

mreduce:
	VSHUFPS   $0xB1, X0, X0, X1
	VADDPS    X1, X0, X0
	VSHUFPS   $0xEE, X0, X0, X1
	VADDSS    X1, X0, X0
	VCVTSS2SD X0, X0, X0
	VMOVSD    X0, (DI)
	VSHUFPS   $0xB1, X5, X5, X1
	VADDPS    X1, X5, X5
	VSHUFPS   $0xEE, X5, X5, X1
	VADDSS    X1, X5, X5
	VCVTSS2SD X5, X5, X5
	VMOVSD    X5, (R13)
	ADDQ      $8, DI
	ADDQ      $8, R13
	LEAQ      (DX)(CX*4), DX
	DECQ      BX
	JMP       mrowloop

minit24:
	// Hoist both 24-d queries into Y10-Y15: [q0 block k | q1 block k].
	VMOVUPS     (SI), X10
	VINSERTF128 $1, (R12), Y10, Y10
	VMOVUPS     16(SI), X11
	VINSERTF128 $1, 16(R12), Y11, Y11
	VMOVUPS     32(SI), X12
	VINSERTF128 $1, 32(R12), Y12, Y12
	VMOVUPS     48(SI), X13
	VINSERTF128 $1, 48(R12), Y13, Y13
	VMOVUPS     64(SI), X14
	VINSERTF128 $1, 64(R12), Y14, Y14
	VMOVUPS     80(SI), X15
	VINSERTF128 $1, 80(R12), Y15, Y15

mrow24:
	TESTQ          BX, BX
	JZ             mdone
	PREFETCHT0     3072(DX)   // 96-byte stride: two hints 48 apart miss no line
	PREFETCHT0     3120(DX)
	VBROADCASTF128 (DX), Y2
	VSUBPS         Y2, Y10, Y1
	VMULPS         Y1, Y1, Y0 // block 0 initializes the accumulators
	VBROADCASTF128 16(DX), Y2
	VSUBPS         Y2, Y11, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	VBROADCASTF128 32(DX), Y2
	VSUBPS         Y2, Y12, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	VBROADCASTF128 48(DX), Y2
	VSUBPS         Y2, Y13, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	VBROADCASTF128 64(DX), Y2
	VSUBPS         Y2, Y14, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	VBROADCASTF128 80(DX), Y2
	VSUBPS         Y2, Y15, Y1
	VMULPS         Y1, Y1, Y1
	VADDPS         Y1, Y0, Y0
	VEXTRACTF128   $1, Y0, X5
	VSHUFPS        $0xB1, X0, X0, X1
	VADDPS         X1, X0, X0
	VSHUFPS        $0xEE, X0, X0, X1
	VADDSS         X1, X0, X0
	VCVTSS2SD      X0, X0, X0
	VMOVSD         X0, (DI)
	VSHUFPS        $0xB1, X5, X5, X1
	VADDPS         X1, X5, X5
	VSHUFPS        $0xEE, X5, X5, X1
	VADDSS         X1, X5, X5
	VCVTSS2SD      X5, X5, X5
	VMOVSD         X5, (R13)
	ADDQ           $8, DI
	ADDQ           $8, R13
	LEAQ           96(DX), DX
	DECQ           BX
	JMP            mrow24

mdone:
	VZEROUPPER
	RET

// func filterCodesAVX2(codes, tables []byte, pairs, blocks, limit int, mask []uint32)
//
// The code kernel (codes.go): per block of 32 rows, Y0 accumulates the
// saturating byte sums; each pair's 32 code bytes split into low and high
// nibbles, which VPSHUFB looks up in the pair's two 16-byte tables (each
// broadcast to both 128-bit lanes, since VPSHUFB looks up within a lane).
// A row survives when min(sum, limit) == sum.
//
// SI = codes, DX = tables, CX = pairs, BX = blocks left, DI = mask,
// R8 = current table, R9 = pairs left, Y14 = 0x0f bytes, Y15 = limit bytes.
TEXT ·filterCodesAVX2(SB), NOSPLIT, $0-96
	MOVQ codes_base+0(FP), SI
	MOVQ tables_base+24(FP), DX
	MOVQ pairs+48(FP), CX
	MOVQ blocks+56(FP), BX
	MOVQ limit+64(FP), AX
	MOVQ mask_base+72(FP), DI
	MOVQ AX, X15
	VPBROADCASTB X15, Y15
	MOVQ $0x0f, AX
	MOVQ AX, X14
	VPBROADCASTB X14, Y14

codeblock:
	TESTQ BX, BX
	JZ    codedone
	VPXOR Y0, Y0, Y0
	MOVQ  DX, R8
	MOVQ  CX, R9

codepair:
	VMOVDQU        (SI), Y1
	VPSRLW         $4, Y1, Y2
	VPAND          Y14, Y1, Y1
	VPAND          Y14, Y2, Y2
	VBROADCASTI128 (R8), Y3
	VBROADCASTI128 16(R8), Y4
	VPSHUFB        Y1, Y3, Y3
	VPSHUFB        Y2, Y4, Y4
	VPADDUSB       Y3, Y0, Y0
	VPADDUSB       Y4, Y0, Y0
	ADDQ           $32, SI
	ADDQ           $32, R8
	DECQ           R9
	JNZ            codepair

	VPMINUB   Y15, Y0, Y1
	VPCMPEQB  Y0, Y1, Y1
	VPMOVMSKB Y1, AX
	MOVL      AX, (DI)
	ADDQ      $4, DI
	DECQ      BX
	JMP       codeblock

codedone:
	VZEROUPPER
	RET

// func codeTablesAVX2(q, cells []float32, scale float32, dst []byte)
//
// The table builder (codes.go), four cells per XMM register: per
// dimension, gap = max(lo - q, q - hi, 0), v = min(gap·gap·scale, 255),
// truncated to int32 and packed with unsigned saturation into the
// dimension's 16 bytes. Each step rounds as the portable twin does.
//
// SI = q, CX = dimensions left, DX = cells, DI = dst, X13 = 0,
// X14 = 255.0, X15 = scale.
TEXT ·codeTablesAVX2(SB), NOSPLIT, $0-80
	MOVQ         q_base+0(FP), SI
	MOVQ         q_len+8(FP), CX
	MOVQ         cells_base+24(FP), DX
	VBROADCASTSS scale+48(FP), X15
	MOVQ         dst_base+56(FP), DI
	MOVL         $0x437f0000, AX
	MOVQ         AX, X14
	VBROADCASTSS X14, X14
	VXORPS       X13, X13, X13

tabledim:
	TESTQ        CX, CX
	JZ           tabledone
	VBROADCASTSS (SI), X0

	VMOVUPS    (DX), X1
	VMOVUPS    64(DX), X2
	VSUBPS     X0, X1, X1
	VSUBPS     X2, X0, X2
	VMAXPS     X2, X1, X1
	VMAXPS     X13, X1, X1
	VMULPS     X1, X1, X1
	VMULPS     X15, X1, X1
	VMINPS     X14, X1, X1
	VCVTTPS2DQ X1, X4

	VMOVUPS    16(DX), X1
	VMOVUPS    80(DX), X2
	VSUBPS     X0, X1, X1
	VSUBPS     X2, X0, X2
	VMAXPS     X2, X1, X1
	VMAXPS     X13, X1, X1
	VMULPS     X1, X1, X1
	VMULPS     X15, X1, X1
	VMINPS     X14, X1, X1
	VCVTTPS2DQ X1, X5

	VMOVUPS    32(DX), X1
	VMOVUPS    96(DX), X2
	VSUBPS     X0, X1, X1
	VSUBPS     X2, X0, X2
	VMAXPS     X2, X1, X1
	VMAXPS     X13, X1, X1
	VMULPS     X1, X1, X1
	VMULPS     X15, X1, X1
	VMINPS     X14, X1, X1
	VCVTTPS2DQ X1, X6

	VMOVUPS    48(DX), X1
	VMOVUPS    112(DX), X2
	VSUBPS     X0, X1, X1
	VSUBPS     X2, X0, X2
	VMAXPS     X2, X1, X1
	VMAXPS     X13, X1, X1
	VMULPS     X1, X1, X1
	VMULPS     X15, X1, X1
	VMINPS     X14, X1, X1
	VCVTTPS2DQ X1, X7

	VPACKUSDW X5, X4, X4
	VPACKUSDW X7, X6, X6
	VPACKUSWB X6, X4, X4
	VMOVDQU   X4, (DI)

	ADDQ $4, SI
	ADDQ $128, DX
	ADDQ $16, DI
	DECQ CX
	JMP  tabledim

tabledone:
	RET
