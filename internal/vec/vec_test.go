package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func randVec(r *rand.Rand, dims int) Vector {
	v := make(Vector, dims)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 10)
	}
	return v
}

func TestSquaredDistanceKnown(t *testing.T) {
	a := Vector{0, 0, 0}
	b := Vector{3, 4, 0}
	if got := SquaredDistance(a, b); got != 25 {
		t.Fatalf("SquaredDistance = %v, want 25", got)
	}
	if got := Distance(a, b); got != 5 {
		t.Fatalf("Distance = %v, want 5", got)
	}
}

func TestDistanceZeroForIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		v := randVec(r, Dims)
		if got := Distance(v, v); got != 0 {
			t.Fatalf("Distance(v,v) = %v, want 0", got)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r, Dims), randVec(r, Dims)
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVec(r, Dims), randVec(r, Dims), randVec(r, Dims)
		// Allow a small relative epsilon for float accumulation.
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SquaredDistance(Vector{1, 2}, Vector{1, 2, 3})
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestAdd(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Add(Vector{1, 1, 1})
	if !Equal(v, Vector{2, 3, 4}) {
		t.Fatalf("Add: got %v", v)
	}
}

func TestNorm(t *testing.T) {
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := (Vector{0, 0, 0}).Norm(); got != 0 {
		t.Fatalf("Norm of zero = %v", got)
	}
}

func TestSphereLowerBound(t *testing.T) {
	center := Vector{0, 0}
	q := Vector{10, 0}
	if got := SphereLowerBound(q, center, 3); got != 7 {
		t.Fatalf("SphereLowerBound = %v, want 7", got)
	}
	// Query inside the sphere: bound clamps to zero.
	if got := SphereLowerBound(Vector{1, 0}, center, 3); got != 0 {
		t.Fatalf("SphereLowerBound inside = %v, want 0", got)
	}
}

// The sphere lower bound must never exceed the true distance to any member
// of the sphere: this is the correctness condition of the paper's exact
// stop rule.
func TestSphereLowerBoundIsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		center := randVec(r, Dims)
		members := make([]Vector, 20)
		for i := range members {
			members[i] = randVec(r, Dims)
		}
		radius := MaxDistanceFrom(center, members)
		q := randVec(r, Dims)
		lb := SphereLowerBound(q, center, radius)
		for _, m := range members {
			if Distance(q, m) < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCentroid(t *testing.T) {
	vs := []Vector{{0, 0}, {2, 2}, {4, 4}}
	c := Centroid(vs)
	if !Equal(c, Vector{2, 2}) {
		t.Fatalf("Centroid = %v, want {2,2}", c)
	}
}

func TestCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty centroid")
		}
	}()
	Centroid(nil)
}

// Centroid minimizes the sum of squared distances: perturbing it in any
// coordinate direction must not reduce the sum.
func TestCentroidMinimizesSSQ(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vs := make([]Vector, 30)
	for i := range vs {
		vs[i] = randVec(r, 6)
	}
	c := Centroid(vs)
	ssq := func(p Vector) float64 {
		var s float64
		for _, v := range vs {
			s += SquaredDistance(p, v)
		}
		return s
	}
	base := ssq(c)
	for dim := 0; dim < 6; dim++ {
		for _, delta := range []float32{-0.5, 0.5} {
			p := c.Clone()
			p[dim] += delta
			if ssq(p) < base-1e-6 {
				t.Fatalf("perturbed centroid beats centroid in dim %d", dim)
			}
		}
	}
}

func TestMaxDistanceFrom(t *testing.T) {
	center := Vector{0, 0}
	vs := []Vector{{1, 0}, {0, 2}, {-3, 0}}
	if got := MaxDistanceFrom(center, vs); got != 3 {
		t.Fatalf("MaxDistanceFrom = %v, want 3", got)
	}
	if got := MaxDistanceFrom(center, nil); got != 0 {
		t.Fatalf("MaxDistanceFrom(empty) = %v, want 0", got)
	}
}

func TestBoundsAbsorbContains(t *testing.T) {
	b := NewBounds(2)
	b.Absorb(Vector{1, 5})
	b.Absorb(Vector{3, 2})
	if !Equal(b.Min, Vector{1, 2}) || !Equal(b.Max, Vector{3, 5}) {
		t.Fatalf("bounds wrong: %+v", b)
	}
	if !b.Contains(Vector{2, 3}) {
		t.Fatal("Contains(interior) = false")
	}
	if b.Contains(Vector{0, 3}) {
		t.Fatal("Contains(exterior) = true")
	}
}

func TestBoundsAbsorbBounds(t *testing.T) {
	a := NewBounds(1)
	a.Absorb(Vector{1})
	b := NewBounds(1)
	b.Absorb(Vector{5})
	a.AbsorbBounds(b)
	if a.Min[0] != 1 || a.Max[0] != 5 {
		t.Fatalf("AbsorbBounds wrong: %+v", a)
	}
}

func TestSquaredMinDist(t *testing.T) {
	b := NewBounds(2)
	b.Absorb(Vector{0, 0})
	b.Absorb(Vector{2, 2})
	if got := b.SquaredMinDist(Vector{1, 1}); got != 0 {
		t.Fatalf("inside MINDIST = %v, want 0", got)
	}
	if got := b.SquaredMinDist(Vector{5, 1}); got != 9 {
		t.Fatalf("MINDIST = %v, want 9", got)
	}
	if got := b.SquaredMinDist(Vector{5, 6}); got != 25 {
		t.Fatalf("corner MINDIST = %v, want 25", got)
	}
}

// MINDIST must lower-bound the distance to every point inside the box.
func TestSquaredMinDistIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBounds(Dims)
		pts := make([]Vector, 15)
		for i := range pts {
			pts[i] = randVec(r, Dims)
			b.Absorb(pts[i])
		}
		q := randVec(r, Dims)
		lb := b.SquaredMinDist(q)
		for _, p := range pts {
			if SquaredDistance(q, p) < lb-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSquaredDistance24(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randVec(r, Dims), randVec(r, Dims)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredDistance(x, y)
	}
	_ = sink
}
