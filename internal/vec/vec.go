// Package vec provides fixed-dimension float32 vector math for image
// descriptors.
//
// The paper works with 24-dimensional local descriptors compared under
// Euclidean (L2) distance. The repo-wide convention is: distances are
// computed and compared in *squared* form everywhere ordering or pruning
// is all that matters — heaps, stop rules, partial-distance abandonment —
// and converted with math.Sqrt only at reporting boundaries (knn.Heap
// sorting, user-facing Neighbor.Dist fields, radii).
//
// All squared distances flow through the kernels in kernels.go
// (SquaredDistance, SquaredDistancesTo, PartialSquaredDistance): 4-way
// unrolled float32 accumulation with a specialized dims==24 path, sharing
// one accumulation order so every kernel returns bit-identical values for
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

// New returns a zero vector with the given dimensionality.
func New(dims int) Vector { return make(Vector, dims) }

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

// Add accumulates o into v in place.
func (v Vector) Add(o Vector) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(o)))
	}
	for i := range v {
		v[i] += o[i]
	}
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

// SphereLowerBound returns the smallest possible distance from point q to
// any point inside the sphere (center, radius): max(0, |q-center| - radius).
//
// This is the bound the paper's exact stop rule relies on (§4.3): once the
// lower bound of the next-ranked chunk exceeds the current k-th neighbor
// distance, no unread chunk can improve the result.
func SphereLowerBound(q, center Vector, radius float64) float64 {
	d := Distance(q, center) - radius
	if d < 0 {
		return 0
	}
	return d
}

// Centroid returns the arithmetic mean of the given vectors. It panics if
// vs is empty or dimensionalities disagree.
func Centroid(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("vec: centroid of empty set")
	}
	acc := make([]float64, len(vs[0]))
	for _, v := range vs {
		if len(v) != len(acc) {
			panic("vec: dimension mismatch in centroid")
		}
		for i, x := range v {
			acc[i] += float64(x)
		}
	}
	out := make(Vector, len(acc))
	inv := 1 / float64(len(vs))
	for i, s := range acc {
		out[i] = float32(s * inv)
	}
	return out
}

// MaxDistanceFrom returns the largest distance from center to any vector in
// vs (0 for an empty slice). Used to compute minimum bounding radii. The
// maximum is taken over squared distances; sqrt is applied once at the end.
func MaxDistanceFrom(center Vector, vs []Vector) float64 {
	var max float64
	for _, v := range vs {
		if d := SquaredDistance(center, v); d > max {
			max = d
		}
	}
	return math.Sqrt(max)
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

// AbsorbBounds extends b to include the whole region o.
func (b *Bounds) AbsorbBounds(o Bounds) {
	for i := range b.Min {
		if o.Min[i] < b.Min[i] {
			b.Min[i] = o.Min[i]
		}
		if o.Max[i] > b.Max[i] {
			b.Max[i] = o.Max[i]
		}
	}
}

// Contains reports whether v lies inside b (inclusive).
func (b Bounds) Contains(v Vector) bool {
	for i, x := range v {
		if x < b.Min[i] || x > b.Max[i] {
			return false
		}
	}
	return true
}

// SquaredMinDist returns the squared distance from q to the nearest point
// of the rectangle b (0 if q is inside). This is the MINDIST bound used by
// R-tree-family traversal, including the SR-tree.
func (b Bounds) SquaredMinDist(q Vector) float64 {
	var sum float64
	for i, x := range q {
		switch {
		case x < b.Min[i]:
			d := float64(b.Min[i]) - float64(x)
			sum += d * d
		case x > b.Max[i]:
			d := float64(x) - float64(b.Max[i])
			sum += d * d
		}
	}
	return sum
}
