//go:build arm64

#include "textflag.h"

// Handwritten NEON kernels, a direct transliteration of the SSE2 kernels
// in kernels_amd64.s under the same binding contract (kernels.go):
// element i feeds float32 lane i&3 of one 128-bit accumulator, lanes
// combine as (s0+s1)+(s2+s3), widen to float64 last, and no FMA — FMLA
// would fuse the rounding and break byte-identity with the portable
// backend, so the kernels use separate FMUL/FADD steps.
//
// The Go assembler has no mnemonics for the AArch64 vector float ops, so
// those four instructions are emitted as WORD constants. Encodings were
// produced and cross-checked with llvm-mc ("fsub v1.4s, v1.4s, v2.4s",
// etc.); each macro names the instruction it stands for.

#define FSUB_V1_V1_V2  WORD $0x4EA2D421 // fsub  v1.4s, v1.4s, v2.4s
#define FMUL_V1_V1_V1  WORD $0x6E21DC21 // fmul  v1.4s, v1.4s, v1.4s
#define FADD_V0_V0_V1  WORD $0x4E21D400 // fadd  v0.4s, v0.4s, v1.4s
#define FADDP_V0_V0_V0 WORD $0x6E20D400 // faddp v0.4s, v0.4s, v0.4s

// The dims==24 row-pair path (rowpair24 below) hoists the query's six
// blocks into V10-V15 and accumulates two rows per trip: row i in V0
// (temps V1/V2) and row i+1 in V4 (temps V3/V5). Same encoding scheme,
// same contract: each row's accumulator runs the exact 4-lane order.
#define FSUB_V1_V10_V2 WORD $0x4EA2D541 // fsub  v1.4s, v10.4s, v2.4s
#define FSUB_V1_V11_V2 WORD $0x4EA2D561 // fsub  v1.4s, v11.4s, v2.4s
#define FSUB_V1_V12_V2 WORD $0x4EA2D581 // fsub  v1.4s, v12.4s, v2.4s
#define FSUB_V1_V13_V2 WORD $0x4EA2D5A1 // fsub  v1.4s, v13.4s, v2.4s
#define FSUB_V1_V14_V2 WORD $0x4EA2D5C1 // fsub  v1.4s, v14.4s, v2.4s
#define FSUB_V1_V15_V2 WORD $0x4EA2D5E1 // fsub  v1.4s, v15.4s, v2.4s
#define FSUB_V3_V10_V5 WORD $0x4EA5D543 // fsub  v3.4s, v10.4s, v5.4s
#define FSUB_V3_V11_V5 WORD $0x4EA5D563 // fsub  v3.4s, v11.4s, v5.4s
#define FSUB_V3_V12_V5 WORD $0x4EA5D583 // fsub  v3.4s, v12.4s, v5.4s
#define FSUB_V3_V13_V5 WORD $0x4EA5D5A3 // fsub  v3.4s, v13.4s, v5.4s
#define FSUB_V3_V14_V5 WORD $0x4EA5D5C3 // fsub  v3.4s, v14.4s, v5.4s
#define FSUB_V3_V15_V5 WORD $0x4EA5D5E3 // fsub  v3.4s, v15.4s, v5.4s
#define FMUL_V3_V3_V3  WORD $0x6E23DC63 // fmul  v3.4s, v3.4s, v3.4s
#define FADD_V4_V4_V3  WORD $0x4E23D484 // fadd  v4.4s, v4.4s, v3.4s
#define FADDP_V4_V4_V4 WORD $0x6E24D484 // faddp v4.4s, v4.4s, v4.4s

// func sqDistsToNEON(q, backing []float32, dims, rows int, out []float64)
//
// R0 = q base, R1 = current row, R2 = dims, R3 = rows left, R4 = out.
// R7 = dims/4 vector blocks, R8 = dims&3 tail elements; R5/R6 are the
// per-row q/row cursors (VLD1.P / FMOVS.P post-increment them).
TEXT ·sqDistsToNEON(SB), NOSPLIT, $0-88
	MOVD q_base+0(FP), R0
	MOVD backing_base+24(FP), R1
	MOVD dims+48(FP), R2
	MOVD rows+56(FP), R3
	MOVD out_base+64(FP), R4
	LSR  $2, R2, R7
	AND  $3, R2, R8
	CMP  $24, R2
	BEQ  init24

rowloop:
	CBZ  R3, done
	VEOR V0.B16, V0.B16, V0.B16 // V0 = [s0 s1 s2 s3]
	MOVD R0, R5
	MOVD R1, R6
	MOVD R7, R9

vloop:
	CBZ    R9, vdone
	VLD1.P 16(R5), [V1.S4]
	VLD1.P 16(R6), [V2.S4]
	FSUB_V1_V1_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	SUB    $1, R9, R9
	B      vloop

vdone:
	CBNZ R8, slowtail

	// No tail: two pairwise adds give lane0 = (s0+s1)+(s2+s3).
	FADDP_V0_V0_V0
	FADDP_V0_V0_V0
	FCVTSD F0, F10
	B      store

slowtail:
	// Tail elements feed lane 0, so split the lanes into scalars first
	// (scalar FP writes zero a V register's upper lanes, so s1..s3 must
	// be extracted before the tail accumulates into s0).
	VMOV  V0.S[0], R10
	FMOVS R10, F10
	VMOV  V0.S[1], R10
	FMOVS R10, F11
	VMOV  V0.S[2], R10
	FMOVS R10, F12
	VMOV  V0.S[3], R10
	FMOVS R10, F13
	MOVD  R8, R9

tailloop:
	FMOVS.P 4(R5), F1
	FMOVS.P 4(R6), F2
	FSUBS   F2, F1, F1
	FMULS   F1, F1, F1
	FADDS   F1, F10, F10
	SUB     $1, R9, R9
	CBNZ    R9, tailloop
	FADDS   F11, F10, F10       // s0+s1
	FADDS   F13, F12, F12       // s2+s3
	FADDS   F12, F10, F10       // (s0+s1)+(s2+s3)
	FCVTSD  F10, F10

store:
	FMOVD.P F10, 8(R4)
	ADD     R2<<2, R1, R1       // next row
	SUB     $1, R3, R3
	B       rowloop

init24:
	// dims==24 (the paper's descriptor width): hoist the query's six
	// blocks into V10-V15 once per call, then run a fully unrolled
	// row-pair body — each trip loads both rows' blocks while the query
	// stays register-resident, so the inner loop touches memory only for
	// row data. 24 is six full blocks, so no scalar tail exists.
	MOVD   R0, R5
	VLD1.P 64(R5), [V10.S4, V11.S4, V12.S4, V13.S4]
	VLD1   (R5), [V14.S4, V15.S4]

rowpair24:
	CMP  $2, R3
	BLT  single24
	MOVD R1, R5                 // row i cursor
	ADD  $96, R1, R6            // row i+1 cursor
	VEOR V0.B16, V0.B16, V0.B16 // row i accumulators
	VEOR V4.B16, V4.B16, V4.B16 // row i+1 accumulators

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V10_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R6), [V5.S4]
	FSUB_V3_V10_V5
	FMUL_V3_V3_V3
	FADD_V4_V4_V3

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V11_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R6), [V5.S4]
	FSUB_V3_V11_V5
	FMUL_V3_V3_V3
	FADD_V4_V4_V3

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V12_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R6), [V5.S4]
	FSUB_V3_V12_V5
	FMUL_V3_V3_V3
	FADD_V4_V4_V3

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V13_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R6), [V5.S4]
	FSUB_V3_V13_V5
	FMUL_V3_V3_V3
	FADD_V4_V4_V3

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V14_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R6), [V5.S4]
	FSUB_V3_V14_V5
	FMUL_V3_V3_V3
	FADD_V4_V4_V3

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V15_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R6), [V5.S4]
	FSUB_V3_V15_V5
	FMUL_V3_V3_V3
	FADD_V4_V4_V3

	// Reduce both rows: lane0 = (s0+s1)+(s2+s3), widen, store.
	FADDP_V0_V0_V0
	FADDP_V0_V0_V0
	FCVTSD  F0, F10
	FMOVD.P F10, 8(R4)
	FADDP_V4_V4_V4
	FADDP_V4_V4_V4
	FCVTSD  F4, F10
	FMOVD.P F10, 8(R4)
	ADD     $192, R1, R1
	SUB     $2, R3, R3
	B       rowpair24

single24:
	CBZ  R3, done
	MOVD R1, R5
	VEOR V0.B16, V0.B16, V0.B16

	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V10_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V11_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V12_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V13_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V14_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1
	VLD1.P 16(R5), [V2.S4]
	FSUB_V1_V15_V2
	FMUL_V1_V1_V1
	FADD_V0_V0_V1

	FADDP_V0_V0_V0
	FADDP_V0_V0_V0
	FCVTSD  F0, F10
	FMOVD.P F10, 8(R4)

done:
	RET
