// Package vec provides fixed-dimension float32 vector math for image
// descriptors.
//
// The paper works with 24-dimensional local descriptors compared under
// Euclidean (L2) distance. The repo-wide convention is: distances are
// computed and compared in *squared* form everywhere ordering or pruning
// is all that matters — heaps, stop rules, bounds — and converted with
// math.Sqrt only at reporting boundaries (knn.Heap sorting, user-facing
// Neighbor.Dist fields, radii).
//
// All squared distances flow through the kernels in kernels.go: the
// block kernels SquaredDistancesTo and SquaredDistancesMulti, and
// SquaredDistance for one pair. They run 4-way unrolled float32
// accumulation with a specialized dims==24 path, sharing one
// accumulation order so every kernel returns bit-identical values for
// the same pair. Search backends must use these kernels (not ad-hoc
// loops) so that independently implemented searches agree exactly on
// neighbor sets, tie order included.
package vec

import (
	"fmt"
	"math"
)

// Dims is the dimensionality of the descriptors used throughout the paper.
// The package functions accept arbitrary equal-length vectors; Dims is the
// default used by generators and file formats.
const Dims = 24

// Vector is a point in d-dimensional Euclidean space.
type Vector []float32

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// SquaredDistance returns the squared Euclidean distance between a and b.
// It panics if the vectors have different dimensionality: mixing
// dimensionalities is always a programming error in this codebase.
func SquaredDistance(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
	return squaredDist(a, b)
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b Vector) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// Norm returns the Euclidean length of v.
func (v Vector) Norm() float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	return math.Sqrt(sum)
}

// Equal reports whether a and b are identical coordinate-wise.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bounds holds per-dimension minima and maxima of a set of vectors.
type Bounds struct {
	Min Vector
	Max Vector
}

// NewBounds returns Bounds primed to absorb vectors of the given
// dimensionality (Min at +inf, Max at -inf).
func NewBounds(dims int) Bounds {
	b := Bounds{Min: make(Vector, dims), Max: make(Vector, dims)}
	for i := 0; i < dims; i++ {
		b.Min[i] = float32(math.Inf(1))
		b.Max[i] = float32(math.Inf(-1))
	}
	return b
}

// Absorb extends b to include v.
func (b *Bounds) Absorb(v Vector) {
	for i, x := range v {
		if x < b.Min[i] {
			b.Min[i] = x
		}
		if x > b.Max[i] {
			b.Max[i] = x
		}
	}
}
