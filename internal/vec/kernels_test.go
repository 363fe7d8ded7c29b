package vec

import (
	"math"
	"math/rand"
	"testing"
)

// naiveSquaredDistance is the scalar float64 reference loop the kernels
// are validated against.
func naiveSquaredDistance(a, b Vector) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

// relClose allows for the float32-accumulation rounding of the kernels
// relative to the float64 reference: error is bounded by ~dims ulps.
func relClose(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= 1e-4*math.Abs(want)
}

// TestKernelMatchesNaive is the core property test: over random dims
// (including the specialized 24) the kernel agrees with the scalar
// reference loop up to float32 accumulation rounding.
func TestKernelMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 23, 24, 25, 31, 33, 64, 100}
	for _, d := range dims {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(r, d), randVec(r, d)
			got := SquaredDistance(a, b)
			want := naiveSquaredDistance(a, b)
			if !relClose(got, want) {
				t.Fatalf("dims %d: kernel %v vs naive %v", d, got, want)
			}
		}
	}
}

// TestKernelsBitIdentical asserts the property the backend cross-checks
// rely on: the batch kernel and SquaredDistance return bit-identical
// values for the same pair.
func TestKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 3, 4, 8, 11, 24, 37, 64} {
		q := randVec(r, d)
		const rows = 17
		backing := make([]float32, 0, rows*d)
		vecs := make([]Vector, rows)
		for i := range vecs {
			vecs[i] = randVec(r, d)
			backing = append(backing, vecs[i]...)
		}
		out := make([]float64, rows)
		SquaredDistancesTo(q, backing, d, out)
		for i, v := range vecs {
			ref := SquaredDistance(q, v)
			if out[i] != ref {
				t.Fatalf("dims %d row %d: batch %x vs pairwise %x", d, i, out[i], ref)
			}
		}
	}
}

// TestMultiKernelBitIdentical pins the batch engine's kernel to the
// single-query kernels: for every (query, row) pair, SquaredDistancesMulti
// writes exactly the value SquaredDistance returns, at every query count
// and row-block shape.
func TestMultiKernelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 4, 11, 24, 37} {
		for _, nq := range []int{1, 2, 5} {
			const rows = 23
			queries := make([]float32, 0, nq*d)
			qvecs := make([]Vector, nq)
			for i := range qvecs {
				qvecs[i] = randVec(r, d)
				queries = append(queries, qvecs[i]...)
			}
			backing := make([]float32, 0, rows*d)
			vecs := make([]Vector, rows)
			for i := range vecs {
				vecs[i] = randVec(r, d)
				backing = append(backing, vecs[i]...)
			}
			out := make([]float64, nq*rows)
			SquaredDistancesMulti(queries, backing, d, out)
			for qi, q := range qvecs {
				for i, v := range vecs {
					if ref := SquaredDistance(q, v); out[qi*rows+i] != ref {
						t.Fatalf("dims %d q%d row %d: multi %x vs pairwise %x", d, qi, i, out[qi*rows+i], ref)
					}
				}
			}
		}
	}
}

func TestMultiKernelPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ragged queries": func() { SquaredDistancesMulti(make([]float32, 7), make([]float32, 8), 4, make([]float64, 4)) },
		"ragged backing": func() { SquaredDistancesMulti(make([]float32, 8), make([]float32, 7), 4, make([]float64, 4)) },
		"short out":      func() { SquaredDistancesMulti(make([]float32, 8), make([]float32, 8), 4, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKernelEdgeCases(t *testing.T) {
	if got := SquaredDistance(Vector{}, Vector{}); got != 0 {
		t.Fatalf("empty vectors: %v", got)
	}
	r := rand.New(rand.NewSource(4))
	for _, d := range []int{1, 24, 30} {
		v := randVec(r, d)
		if got := SquaredDistance(v, v); got != 0 {
			t.Fatalf("identical %d-d vectors: %v", d, got)
		}
	}
	// SquaredDistancesTo over an empty backing is a no-op.
	SquaredDistancesTo(randVec(r, 24), nil, 24, nil)
}

func TestBatchKernelPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dims mismatch":  func() { SquaredDistancesTo(make(Vector, 3), make([]float32, 8), 4, make([]float64, 2)) },
		"ragged backing": func() { SquaredDistancesTo(make(Vector, 4), make([]float32, 7), 4, make([]float64, 2)) },
		"short out":      func() { SquaredDistancesTo(make(Vector, 4), make([]float32, 8), 4, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
