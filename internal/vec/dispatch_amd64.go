//go:build amd64

package vec

// Assembly kernels (kernels_amd64.s). All of them implement the
// accumulation contract documented in kernels.go: 4 float32 lanes, element
// i into lane i&3, lanes combined (s0+s1)+(s2+s3), widened to float64
// last, no FMA. SSE2 is the amd64 baseline so sqDistsToSSE2 runs on every
// amd64 CPU; the AVX2 variants are selected only when CPUID reports AVX2
// plus OS support for YMM state.

//go:noescape
func sqDistsToSSE2(q, backing []float32, dims, rows int, out []float64)

//go:noescape
func sqDistsToAVX2(q, backing []float32, dims, rows int, out []float64)

//go:noescape
func sqDistsMultiPairAVX2(q0, q1, backing []float32, dims, rows int, out0, out1 []float64)

// cpuid and xgetbv0 (cpu_amd64.s) expose the CPUID / XGETBV instructions
// for feature detection. Implemented in-repo: the module deliberately has
// no external dependencies, so golang.org/x/sys/cpu is not an option.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether the CPU and OS support AVX2: AVX + OSXSAVE in
// CPUID.1:ECX, XMM+YMM state enabled in XCR0, and AVX2 in CPUID.7.0:EBX.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if c1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}

func squaredDistancesToSSE2(q, backing []float32, dims int, out []float64) {
	sqDistsToSSE2(q, backing, dims, len(backing)/dims, out)
}

func squaredDistancesToAVX2(q, backing []float32, dims int, out []float64) {
	sqDistsToAVX2(q, backing, dims, len(backing)/dims, out)
}

// squaredDistancesMultiAVX2 runs the multi-query scan through the
// query-pair kernel: queries are taken two at a time, each pair sharing
// one pass over the rows (the pair rides in one 256-bit register, the
// row block broadcast to both halves), with an odd trailing query
// falling back to the row-pair single-query kernel. Distances are
// bit-identical to per-query calls — each 128-bit half runs the same
// 4-lane accumulation — so this only changes how often the rows are
// loaded: once per pair instead of once per query.
func squaredDistancesMultiAVX2(queries, backing []float32, dims int, out []float64) {
	rows := len(backing) / dims
	nq := len(queries) / dims
	qi := 0
	for ; qi+2 <= nq; qi += 2 {
		sqDistsMultiPairAVX2(
			queries[qi*dims:(qi+1)*dims], queries[(qi+1)*dims:(qi+2)*dims],
			backing, dims, rows,
			out[qi*rows:(qi+1)*rows], out[(qi+1)*rows:(qi+2)*rows])
	}
	if qi < nq {
		sqDistsToAVX2(queries[qi*dims:(qi+1)*dims], backing, dims, rows, out[qi*rows:(qi+1)*rows])
	}
}

// archKernels reports the assembly backends usable on this CPU, slowest
// first.
func archKernels() []kernelBackend {
	ks := []kernelBackend{{
		name:       "sse2",
		distsTo:    squaredDistancesToSSE2,
		distsMulti: multiFrom(sqDistsToSSE2),
	}}
	if hasAVX2() {
		ks = append(ks, kernelBackend{
			name:       "avx2",
			distsTo:    squaredDistancesToAVX2,
			distsMulti: squaredDistancesMultiAVX2,
		})
	}
	return ks
}
