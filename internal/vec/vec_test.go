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

func TestNorm(t *testing.T) {
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := (Vector{0, 0, 0}).Norm(); got != 0 {
		t.Fatalf("Norm of zero = %v", got)
	}
}

func TestBoundsAbsorbContains(t *testing.T) {
	b := NewBounds(2)
	b.Absorb(Vector{1, 5})
	b.Absorb(Vector{3, 2})
	if !Equal(b.Min, Vector{1, 2}) || !Equal(b.Max, Vector{3, 5}) {
		t.Fatalf("bounds wrong: %+v", b)
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
