package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/descriptor"
	"repro/internal/vec"
)

func testColl(r *rand.Rand, n, dims int) *descriptor.Collection {
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

func TestSingleton(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	coll := testColl(r, 5, 4)
	c := NewFromPoint(coll, 2)
	if c.Radius != 0 {
		t.Fatalf("singleton radius = %v, want 0", c.Radius)
	}
	if c.Count() != 1 || c.Members[0] != 2 {
		t.Fatalf("members = %v", c.Members)
	}
	if !vec.Equal(c.Centroid, coll.Vec(2)) {
		t.Fatal("centroid != point")
	}
	if err := c.Validate(coll); err != nil {
		t.Fatal(err)
	}
}

func TestNewFromMembers(t *testing.T) {
	coll := descriptor.NewCollection(2, 0)
	coll.Append(0, vec.Vector{0, 0})
	coll.Append(1, vec.Vector{4, 0})
	c := NewFromMembers(coll, []int{0, 1})
	if !vec.Equal(c.Centroid, vec.Vector{2, 0}) {
		t.Fatalf("centroid = %v", c.Centroid)
	}
	if c.Radius != 2 {
		t.Fatalf("radius = %v, want 2", c.Radius)
	}
	if err := c.Validate(coll); err != nil {
		t.Fatal(err)
	}
}

func TestMergeMatchesFromMembers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		coll := testColl(r, 20, 6)
		a := NewFromMembers(coll, []int{0, 1, 2})
		b := NewFromMembers(coll, []int{3, 4, 5, 6})
		want := NewFromMembers(coll, []int{0, 1, 2, 3, 4, 5, 6})
		// MergedRadius must predict the post-merge radius exactly.
		pred := MergedRadius(coll, a, b)
		a.Merge(coll, b)
		if a.Count() != 7 {
			return false
		}
		if !vec.Equal(a.Centroid, want.Centroid) {
			return false
		}
		diff := a.Radius - want.Radius
		if diff < -1e-6 || diff > 1e-6 {
			return false
		}
		diff = pred - want.Radius
		return diff > -1e-6 && diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreservesInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	coll := testColl(r, 100, vec.Dims)
	cs := make([]*Cluster, 0, 100)
	for i := 0; i < 100; i++ {
		cs = append(cs, NewFromPoint(coll, i))
	}
	// Merge pairs repeatedly.
	for len(cs) > 1 {
		cs[0].Merge(coll, cs[1])
		if err := cs[0].Validate(coll); err != nil {
			t.Fatalf("after merge to %d members: %v", cs[0].Count(), err)
		}
		cs = append(cs[:1], cs[2:]...)
	}
	if cs[0].Count() != 100 {
		t.Fatalf("final count = %d", cs[0].Count())
	}
}

func TestSummarize(t *testing.T) {
	coll := descriptor.NewCollection(1, 0)
	for i := 0; i < 10; i++ {
		coll.Append(descriptor.ID(i), vec.Vector{float32(i)})
	}
	a := NewFromMembers(coll, []int{0, 1, 2, 3}) // 4 members
	b := NewFromMembers(coll, []int{4, 5})       // 2 members
	c := NewFromMembers(coll, []int{6, 7, 8, 9}) // 4 members
	s := Summarize([]*Cluster{a, b, c})
	if s.Count != 3 || s.Descriptors != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinSize != 2 || s.MaxSize != 4 || s.MeanSize < 3.3 || s.MeanSize > 3.4 {
		t.Fatalf("sizes = %+v", s)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}

func TestLargestSizes(t *testing.T) {
	coll := descriptor.NewCollection(1, 0)
	for i := 0; i < 12; i++ {
		coll.Append(descriptor.ID(i), vec.Vector{float32(i)})
	}
	cs := []*Cluster{
		NewFromMembers(coll, []int{0}),
		NewFromMembers(coll, []int{1, 2, 3, 4, 5}),
		NewFromMembers(coll, []int{6, 7}),
		NewFromMembers(coll, []int{8, 9, 10}),
	}
	got := LargestSizes(cs, 3)
	want := []int{5, 3, 2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("LargestSizes = %v, want %v", got, want)
	}
	if all := LargestSizes(cs, 10); len(all) != 4 {
		t.Fatalf("LargestSizes(10) len = %d", len(all))
	}
}

func TestRemoveSmall(t *testing.T) {
	coll := descriptor.NewCollection(1, 0)
	for i := 0; i < 20; i++ {
		coll.Append(descriptor.ID(i), vec.Vector{float32(i)})
	}
	big := NewFromMembers(coll, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	mid := NewFromMembers(coll, []int{10, 11, 12, 13, 14, 15})
	tiny := NewFromMembers(coll, []int{16})
	// mean = 17/3 ≈ 5.67; 20% cut ≈ 1.13: only tiny falls below.
	ret, des := RemoveSmall([]*Cluster{big, mid, tiny}, 0.20)
	if len(ret) != 2 || len(des) != 1 {
		t.Fatalf("retained %d destroyed %d", len(ret), len(des))
	}
	if des[0] != tiny {
		t.Fatal("wrong cluster destroyed")
	}
	r0, d0 := RemoveSmall(nil, 0.2)
	if r0 != nil || d0 != nil {
		t.Fatal("RemoveSmall(nil) should be nil,nil")
	}
}

func TestTotalMembers(t *testing.T) {
	coll := descriptor.NewCollection(1, 0)
	for i := 0; i < 6; i++ {
		coll.Append(descriptor.ID(100+i), vec.Vector{float32(i)})
	}
	cs := []*Cluster{
		NewFromMembers(coll, []int{0, 2}),
		NewFromMembers(coll, []int{5}),
	}
	if TotalMembers(cs) != 3 {
		t.Fatalf("TotalMembers = %d", TotalMembers(cs))
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	coll := testColl(r, 10, 4)
	c := NewFromMembers(coll, []int{0, 1, 2})
	c.Radius = 0 // corrupt: members are spread out
	if err := c.Validate(coll); err == nil {
		t.Fatal("Validate accepted corrupted radius")
	}
	c = NewFromMembers(coll, []int{0, 1, 2})
	c.Centroid[0] += 50
	if err := c.Validate(coll); err == nil {
		t.Fatal("Validate accepted corrupted centroid")
	}
}
