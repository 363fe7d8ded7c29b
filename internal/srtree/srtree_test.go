package srtree

import (
	"math/rand"
	"testing"

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

// The chunks partition the indexed descriptors: each appears in exactly
// one chunk, and no chunk exceeds the leaf capacity.
func TestBuildValidate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	coll := randColl(r, 1000, 8)
	chunks, err := Chunks(coll, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, coll.Len())
	for _, c := range chunks {
		if c.Count() > 50 {
			t.Fatalf("chunk holds %d > cap 50", c.Count())
		}
		for _, i := range c.Members {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("descriptor %d in %d chunks", i, n)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	coll := randColl(rand.New(rand.NewSource(1)), 10, 4)
	if _, err := Chunks(coll, nil, 0); err == nil {
		t.Error("leafCap 0 accepted")
	}
}

func TestBuildEmpty(t *testing.T) {
	coll := descriptor.NewCollection(4, 0)
	chunks, err := Chunks(coll, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Fatalf("%d chunks over an empty collection", len(chunks))
	}
}

// The paper's static build "guaranteed uniform leaf size": every leaf must
// hold exactly leafCap descriptors except at most one remainder leaf.
func TestUniformLeafSizes(t *testing.T) {
	for _, n := range []int{1000, 1003, 999, 64} {
		r := rand.New(rand.NewSource(int64(n)))
		coll := randColl(r, n, 6)
		leafCap := 64
		chunks, err := Chunks(coll, nil, leafCap)
		if err != nil {
			t.Fatal(err)
		}
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

func TestChunksAreValidClusters(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(5000, 21))
	coll := ds.Collection
	chunks, err := Chunks(coll, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
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
	chunks, err := Chunks(coll, nil, 200)
	if err != nil {
		t.Fatal(err)
	}
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

func BenchmarkBuild50k(b *testing.B) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(50000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Chunks(ds.Collection, nil, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
