//go:build arm64

package vec

// Assembly kernels (kernels_arm64.s). NEON (ASIMD) is mandatory in the
// ARMv8-A base profile every GOARCH=arm64 target implements, so no
// feature detection is needed — the backend is always available.

//go:noescape
func sqDistsToNEON(q, backing []float32, dims, rows int, out []float64)

func squaredDistancesToNEON(q, backing []float32, dims int, out []float64) {
	sqDistsToNEON(q, backing, dims, len(backing)/dims, out)
}

// archKernels reports the assembly backends usable on this CPU, slowest
// first.
func archKernels() []kernelBackend {
	return []kernelBackend{{
		name:       "neon",
		distsTo:    squaredDistancesToNEON,
		distsMulti: multiFrom(sqDistsToNEON),
	}}
}
