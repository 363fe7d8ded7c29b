package vptree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func randItems(r *rand.Rand, n, dims int) []Item {
	items := make([]Item, n)
	for i := range items {
		v := make(vec.Vector, dims)
		for d := range v {
			v[d] = float32(r.NormFloat64() * 10)
		}
		items[i] = Item{ID: i, Vec: v}
	}
	return items
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil, 1)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.KNearestApprox(vec.Vector{1, 2}, 3, 1); len(got) != 0 {
		t.Fatalf("KNearestApprox on empty tree = %v", got)
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		itemsOrig := randItems(r, 150, 8)
		tr := Build(append([]Item(nil), itemsOrig...), seed)
		q := make(vec.Vector, 8)
		for d := range q {
			q[d] = float32(r.NormFloat64() * 10)
		}
		for _, k := range []int{1, 5, 20, 150} {
			got := tr.KNearestApprox(q, k, tr.Len())
			if len(got) != k {
				return false
			}
			// Oracle: sort all by distance.
			dists := make([]float64, len(itemsOrig))
			for i, it := range itemsOrig {
				dists[i] = vec.Distance(q, it.Vec)
			}
			sort.Float64s(dists)
			for i, it := range got {
				if math.Abs(vec.Distance(q, it.Vec)-dists[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKNearestOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := Build(randItems(r, 300, 5), 8)
	q := make(vec.Vector, 5)
	got := tr.KNearestApprox(q, 25, tr.Len())
	for i := 1; i < len(got); i++ {
		if vec.Distance(q, got[i-1].Vec) > vec.Distance(q, got[i].Vec)+1e-12 {
			t.Fatalf("results not ordered at %d", i)
		}
	}
}

func TestKNearestMoreThanSize(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := Build(randItems(r, 7, 3), 2)
	got := tr.KNearestApprox(make(vec.Vector, 3), 50, tr.Len())
	if len(got) != 7 {
		t.Fatalf("len = %d, want 7", len(got))
	}
}

func TestDuplicatePoints(t *testing.T) {
	v := vec.Vector{1, 1, 1}
	items := []Item{{0, v.Clone()}, {1, v.Clone()}, {2, v.Clone()}, {3, vec.Vector{5, 5, 5}}}
	tr := Build(items, 1)
	got := tr.KNearestApprox(v, 3, tr.Len())
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for _, it := range got[:3] {
		if it.ID == 3 {
			t.Fatal("far point ranked among duplicates")
		}
	}
}

func BenchmarkBuild10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := randItems(r, 10000, vec.Dims)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(append([]Item(nil), items...), 1)
	}
}
