package scan

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/descriptor"
	"repro/internal/vec"
)

func randColl(r *rand.Rand, n, dims int) *descriptor.Collection {
	c := descriptor.NewCollection(dims, n)
	v := make(vec.Vector, dims)
	for i := 0; i < n; i++ {
		for d := range v {
			v[d] = float32(r.NormFloat64() * 10)
		}
		c.Append(descriptor.ID(i), v)
	}
	return c
}

// TestKNNAgainstSort pins KNN to a full (d², ID) sort of every row's
// SquaredDistance: exact (ID, Dist) equality, so a tie broken by the wrong
// ID or a row block dropped at the tail shows. The inputs cover the
// paper's 24 dims and a width with a tail (7), one row block plus a
// partial one, and duplicated rows, which make exact distance ties.
func TestKNNAgainstSort(t *testing.T) {
	const k = 25
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, shape := range []struct{ n, dims int }{{200, 8}, {rowBlock + 37, 24}, {rowBlock + 37, 7}} {
			// Append a tenth of the rows again and shuffle the ids: equal
			// distances whose order only the ID tie rule decides, with
			// the lower id as often second in scan order as first.
			base := randColl(r, shape.n, shape.dims)
			ids := r.Perm(shape.n + shape.n/10)
			coll := descriptor.NewCollection(shape.dims, len(ids))
			for i, id := range ids {
				src := i
				if i >= shape.n {
					src = r.Intn(shape.n)
				}
				coll.Append(descriptor.ID(id), base.Vec(src))
			}
			q := coll.Vec(r.Intn(coll.Len())).Clone()
			if r.Intn(2) == 0 {
				for d := range q {
					q[d] = float32(r.NormFloat64() * 10)
				}
			}
			type pair struct {
				d2 float64
				id descriptor.ID
			}
			all := make([]pair, coll.Len())
			for i := range all {
				all[i] = pair{vec.SquaredDistance(q, coll.Vec(i)), coll.IDAt(i)}
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].d2 != all[b].d2 {
					return all[a].d2 < all[b].d2
				}
				return all[a].id < all[b].id
			})
			got := KNN(coll, q, k)
			if len(got) != k {
				t.Logf("n %d dims %d: %d neighbors, want %d", shape.n, shape.dims, len(got), k)
				return false
			}
			for i, nb := range got {
				if nb.ID != all[i].id || nb.Dist != math.Sqrt(all[i].d2) {
					t.Logf("n %d dims %d rank %d: got (%d, %v), want (%d, %v)",
						shape.n, shape.dims, i, nb.ID, nb.Dist, all[i].id, math.Sqrt(all[i].d2))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	coll := randColl(r, 10, 4)
	q := coll.Vec(0)
	if got := KNN(coll, q, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := KNN(descriptor.NewCollection(4, 0), q, 5); got != nil {
		t.Fatal("empty collection should return nil")
	}
	got := KNN(coll, q, 50)
	if len(got) != 10 {
		t.Fatalf("k>n returned %d", len(got))
	}
	if got[0].Dist != 0 {
		t.Fatalf("self distance = %v", got[0].Dist)
	}
}

func TestGroundTruthFound(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	coll := randColl(r, 100, 6)
	queries := []vec.Vector{coll.Vec(3).Clone(), coll.Vec(50).Clone()}
	gt := Compute(coll, queries, 10)
	if len(gt.IDs) != 2 || len(gt.IDs[0]) != 10 {
		t.Fatalf("ground truth shape wrong")
	}
	// The truth itself scores 10/10.
	nn := KNN(coll, queries[0], 10)
	if got := gt.Found(0, nn); got != 10 {
		t.Fatalf("Found(truth) = %d", got)
	}
	// Disjoint ids score 0.
	fake := []struct{}{}
	_ = fake
	none := nn[:0:0]
	if got := gt.Found(0, none); got != 0 {
		t.Fatalf("Found(empty) = %d", got)
	}
}

func BenchmarkScan100k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	coll := randColl(r, 100000, vec.Dims)
	q := coll.Vec(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KNN(coll, q, 30)
	}
}
