package vec

// This file holds the portable reference implementations of the distance
// kernels every search backend in the repository is built on. The block
// kernels' exported entry points (SquaredDistancesTo,
// SquaredDistancesMulti) live in dispatch.go and route to either these
// functions or to the architecture-specific assembly backends declared in
// dispatch_amd64.go / dispatch_arm64.go; SquaredDistance, the pair
// distance, always runs the portable loop below.
//
// THE ACCUMULATION CONTRACT (binding for every backend, asm included):
// element i of the difference vector feeds float32 accumulator lane i&3,
// the four lanes are combined as (s0+s1)+(s2+s3), and the sum is widened
// to float64 only after that combine. No FMA — a fused multiply-add
// rounds once where the portable kernel rounds twice, which would break
// byte-identity between backends. Under this scheme one 128-bit float32
// register *is* the four accumulators, so a SIMD backend reproduces the
// portable kernel bit for bit by construction; wider registers may only
// add parallelism *across rows* (one 4-lane scheme per 128-bit half),
// never across more lanes of the same row. That bit-identity is what lets
// independently implemented backends (chunk search, sequential scan,
// VA-File, ...) agree exactly on neighbor sets, tie order
// included, no matter which CPU the process landed on.
//
// The contract binds values only. An assembly backend may add software
// prefetch hints (the amd64 row kernels do, for rows streamed from beyond
// the caches): a hint changes no register and no result, so the
// cross-backend bit-identity tests remain the oracle for it.

// squaredDist24 is the fully unrolled kernel for the paper's 24-d
// descriptors. It matches squaredDistGeneric(a[:24], b[:24]) bit for bit.
func squaredDist24(a, b Vector) float64 {
	a = a[:24:24]
	b = b[:24:24]
	var s0, s1, s2, s3 float32
	for i := 0; i <= 20; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return float64((s0 + s1) + (s2 + s3))
}

// squaredDistGeneric is the 4-way unrolled kernel for arbitrary
// dimensionality. Tail elements (dims % 4 != 0) all feed lane 0.
func squaredDistGeneric(a, b Vector) float64 {
	var s0, s1, s2, s3 float32
	i, n := 0, len(a)
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return float64((s0 + s1) + (s2 + s3))
}

// squaredDist dispatches to the specialized or generic kernel.
func squaredDist(a, b Vector) float64 {
	if len(a) == Dims {
		return squaredDist24(a, b)
	}
	return squaredDistGeneric(a, b)
}

// squaredDistancesToPortable is the portable backend for
// SquaredDistancesTo. Arguments are pre-validated by the dispatcher.
func squaredDistancesToPortable(q, backing []float32, dims int, out []float64) {
	n := len(backing) / dims
	if dims == Dims {
		for i := 0; i < n; i++ {
			out[i] = squaredDist24(q, backing[i*Dims:(i+1)*Dims])
		}
		return
	}
	for i := 0; i < n; i++ {
		out[i] = squaredDistGeneric(q, backing[i*dims:(i+1)*dims])
	}
}

// multiRowTile is the row tile of the portable batch kernel: 64 rows of
// 24-d float32 are 6 KiB, so one tile stays L1-resident while every query
// of the batch streams over it before the kernel moves to the next tile.
const multiRowTile = 64

// squaredDistancesMultiPortable is the portable backend for
// SquaredDistancesMulti: a row-tiled two-level loop (tiles outer, queries
// inner) so each tile of rows is scanned by all queries while cache-hot.
// Tiling only reorders *which* (query, row) pair is computed when — every
// out value is still produced by the one shared accumulation scheme, so
// results are bit-identical to the per-query delegation it replaced.
func squaredDistancesMultiPortable(queries, backing []float32, dims int, out []float64) {
	nq := len(queries) / dims
	n := len(backing) / dims
	for r0 := 0; r0 < n; r0 += multiRowTile {
		r1 := r0 + multiRowTile
		if r1 > n {
			r1 = n
		}
		for qi := 0; qi < nq; qi++ {
			q := Vector(queries[qi*dims : (qi+1)*dims])
			row := out[qi*n : (qi+1)*n]
			if dims == Dims {
				for i := r0; i < r1; i++ {
					row[i] = squaredDist24(q, backing[i*Dims:(i+1)*Dims])
				}
			} else {
				for i := r0; i < r1; i++ {
					row[i] = squaredDistGeneric(q, backing[i*dims:(i+1)*dims])
				}
			}
		}
	}
}
