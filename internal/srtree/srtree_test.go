package srtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/descriptor"
	"repro/internal/imagegen"
	"repro/internal/vec"
)

func randColl(r *rand.Rand, n, dims int) *descriptor.Collection {
	c := descriptor.NewCollection(dims, n)
	v := make(vec.Vector, dims)
	for i := 0; i < n; i++ {
		for d := range v {
			v[d] = float32(r.NormFloat64() * 20)
		}
		c.Append(descriptor.ID(i), v)
	}
	return c
}

func bruteKNN(coll *descriptor.Collection, q vec.Vector, k int) []Neighbor {
	out := make([]Neighbor, 0, coll.Len())
	for i := 0; i < coll.Len(); i++ {
		out = append(out, Neighbor{Index: i, ID: coll.IDAt(i), Dist: vec.Distance(q, coll.Vec(i))})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestBuildValidate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	coll := randColl(r, 1000, 8)
	tr, err := Build(coll, nil, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatalf("Height = %d, want >= 2 for 1000/50", tr.Height())
	}
}

func TestBuildErrors(t *testing.T) {
	coll := randColl(rand.New(rand.NewSource(1)), 10, 4)
	if _, err := Build(coll, nil, 0, 8); err == nil {
		t.Error("leafCap 0 accepted")
	}
	if _, err := Build(coll, nil, 10, 1); err == nil {
		t.Error("fanout 1 accepted")
	}
}

func TestBuildEmpty(t *testing.T) {
	coll := descriptor.NewCollection(4, 0)
	tr, err := Build(coll, nil, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.KNN(vec.Vector{0, 0, 0, 0}, 5); got != nil {
		t.Fatalf("KNN on empty = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The paper's static build "guaranteed uniform leaf size": every leaf must
// hold exactly leafCap descriptors except at most one remainder leaf.
func TestUniformLeafSizes(t *testing.T) {
	for _, n := range []int{1000, 1003, 999, 64} {
		r := rand.New(rand.NewSource(int64(n)))
		coll := randColl(r, n, 6)
		leafCap := 64
		tr, err := Build(coll, nil, leafCap, 8)
		if err != nil {
			t.Fatal(err)
		}
		chunks := tr.Chunks()
		short := 0
		totalMembers := 0
		for _, c := range chunks {
			totalMembers += c.Count()
			if c.Count() > leafCap {
				t.Fatalf("n=%d: chunk of %d > cap %d", n, c.Count(), leafCap)
			}
			if c.Count() < leafCap {
				short++
			}
		}
		if short > 1 {
			t.Fatalf("n=%d: %d short leaves, want <= 1", n, short)
		}
		if totalMembers != n {
			t.Fatalf("n=%d: chunks cover %d descriptors", n, totalMembers)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		coll := randColl(r, 500, 8)
		tr, err := Build(coll, nil, 25, 6)
		if err != nil {
			return false
		}
		q := make(vec.Vector, 8)
		for d := range q {
			q[d] = float32(r.NormFloat64() * 20)
		}
		for _, k := range []int{1, 10, 30} {
			got := tr.KNN(q, k)
			want := bruteKNN(coll, q, k)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNSubsetIndexes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	coll := randColl(r, 300, 6)
	idx := make([]int, 0, 150)
	for i := 0; i < 300; i += 2 {
		idx = append(idx, i)
	}
	tr, err := Build(coll, idx, 20, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 150 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.KNN(coll.Vec(0), 5)
	for _, nb := range got {
		if nb.Index%2 != 0 {
			t.Fatalf("result %d not in subset", nb.Index)
		}
	}
}

func TestChunksAreValidClusters(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(5000, 21))
	coll := ds.Collection
	tr, err := Build(coll, nil, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Chunks() {
		if err := c.Validate(coll); err != nil {
			t.Fatal(err)
		}
	}
}

// SR-tree chunks tend to overlap; BAG-style quality is not expected. But
// they must still be "roundish": radius comparable to the leaf spread, not
// the whole space.
func TestChunksLocalized(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(8000, 22))
	coll := ds.Collection
	tr, err := Build(coll, nil, 200, 16)
	if err != nil {
		t.Fatal(err)
	}
	chunks := tr.Chunks()
	b := coll.Bounds()
	diag := vec.Distance(b.Min, b.Max)
	over := 0
	for _, c := range chunks {
		if c.Radius > diag/2 {
			over++
		}
	}
	if over > len(chunks)/2 {
		t.Fatalf("%d/%d chunks span more than half the space diagonal", over, len(chunks))
	}
}

func TestHeightGrowsWithSize(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	coll := randColl(r, 2000, 4)
	small, _ := Build(coll, nil, 10, 4)
	big, _ := Build(coll, nil, 500, 4)
	if small.Height() <= big.Height() {
		t.Fatalf("height small-leaf %d <= big-leaf %d", small.Height(), big.Height())
	}
}

func BenchmarkBuild50k(b *testing.B) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(50000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ds.Collection, nil, 1000, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNN50k(b *testing.B) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(50000, 1))
	tr, err := Build(ds.Collection, nil, 1000, 16)
	if err != nil {
		b.Fatal(err)
	}
	q := ds.Collection.Vec(37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(q, 30)
	}
}
