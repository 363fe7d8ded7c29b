// Package cluster provides the hyper-spherical cluster representation and
// incremental merge mathematics shared by the chunk-forming strategies.
//
// A cluster is identified by its centroid and minimum bounding radius
// (paper §3). To merge two clusters in O(1) without revisiting members,
// clusters also carry the BIRCH-style sufficient statistics (count, linear
// sum, squared sum); the bounding radius after a merge is tracked exactly
// by re-measuring member distances when the member vectors are available,
// or conservatively from the sufficient statistics otherwise.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/descriptor"
	"repro/internal/vec"
)

// Cluster is a set of descriptors summarized by centroid and bounding
// radius. Members holds indexes into the source collection.
type Cluster struct {
	Centroid vec.Vector
	Radius   float64
	Members  []int

	// linear holds the per-dimension sum of member vectors, enabling O(d)
	// centroid updates on merge.
	linear []float64
}

// NewFromPoint creates a singleton cluster from descriptor index i of coll.
// Its radius is zero, exactly as BAG's initialization requires (paper §3).
func NewFromPoint(coll *descriptor.Collection, i int) *Cluster {
	v := coll.Vec(i)
	lin := make([]float64, len(v))
	for d, x := range v {
		lin[d] = float64(x)
	}
	return &Cluster{
		Centroid: v.Clone(),
		Radius:   0,
		Members:  []int{i},
		linear:   lin,
	}
}

// NewFromMembers builds a cluster over the given member indexes, computing
// the exact centroid and minimum bounding radius.
func NewFromMembers(coll *descriptor.Collection, members []int) *Cluster {
	if len(members) == 0 {
		panic("cluster: empty member set")
	}
	dims := coll.Dims()
	lin := make([]float64, dims)
	for _, i := range members {
		v := coll.Vec(i)
		for d, x := range v {
			lin[d] += float64(x)
		}
	}
	c := &Cluster{
		Centroid: make(vec.Vector, dims),
		Members:  append([]int(nil), members...),
		linear:   lin,
	}
	c.recomputeCentroid()
	c.RecomputeRadius(coll)
	return c
}

// Count returns the cluster population.
func (c *Cluster) Count() int { return len(c.Members) }

func (c *Cluster) recomputeCentroid() {
	inv := 1 / float64(len(c.Members))
	for d, s := range c.linear {
		c.Centroid[d] = float32(s * inv)
	}
}

// RecomputeRadius re-measures the minimum bounding radius against the
// actual member vectors. The maximum is taken over squared distances;
// sqrt is applied once at the end.
func (c *Cluster) RecomputeRadius(coll *descriptor.Collection) {
	var max2 float64
	for _, i := range c.Members {
		if d2 := vec.SquaredDistance(c.Centroid, coll.Vec(i)); d2 > max2 {
			max2 = d2
		}
	}
	c.Radius = math.Sqrt(max2)
}

// MergedRadius returns the exact minimum bounding radius the union of a
// and b would have, without mutating either. The merged centroid is the
// population-weighted mean.
func MergedRadius(coll *descriptor.Collection, a, b *Cluster) float64 {
	dims := len(a.Centroid)
	merged := make(vec.Vector, dims)
	na, nb := float64(a.Count()), float64(b.Count())
	inv := 1 / (na + nb)
	for d := 0; d < dims; d++ {
		merged[d] = float32((a.linear[d] + b.linear[d]) * inv)
	}
	var max2 float64
	for _, i := range a.Members {
		if d2 := vec.SquaredDistance(merged, coll.Vec(i)); d2 > max2 {
			max2 = d2
		}
	}
	for _, i := range b.Members {
		if d2 := vec.SquaredDistance(merged, coll.Vec(i)); d2 > max2 {
			max2 = d2
		}
	}
	return math.Sqrt(max2)
}

// Merge absorbs o into c, updating centroid, members and exact radius.
func (c *Cluster) Merge(coll *descriptor.Collection, o *Cluster) {
	for d := range c.linear {
		c.linear[d] += o.linear[d]
	}
	c.Members = append(c.Members, o.Members...)
	c.recomputeCentroid()
	c.RecomputeRadius(coll)
}

// Validate checks the internal invariants of the cluster against the
// collection: centroid is the member mean and radius bounds every member.
// It returns a descriptive error for use in tests and debugging.
func (c *Cluster) Validate(coll *descriptor.Collection) error {
	if len(c.Members) == 0 {
		return fmt.Errorf("cluster: no members")
	}
	dims := coll.Dims()
	mean := make([]float64, dims)
	for _, i := range c.Members {
		v := coll.Vec(i)
		for d, x := range v {
			mean[d] += float64(x)
		}
	}
	inv := 1 / float64(len(c.Members))
	for d := range mean {
		mean[d] *= inv
		if math.Abs(mean[d]-float64(c.Centroid[d])) > 1e-3 {
			return fmt.Errorf("cluster: centroid dim %d is %v, want %v", d, c.Centroid[d], mean[d])
		}
	}
	for _, i := range c.Members {
		if d := vec.Distance(c.Centroid, coll.Vec(i)); d > c.Radius+1e-6 {
			return fmt.Errorf("cluster: member %d at distance %v exceeds radius %v", i, d, c.Radius)
		}
	}
	return nil
}

// Stats summarizes a set of clusters.
type Stats struct {
	Count       int     // number of clusters
	Descriptors int     // total population
	MeanSize    float64 // average population
	MinSize     int
	MaxSize     int
	MeanRadius  float64
	MaxRadius   float64
}

// Summarize computes Stats over cs. An empty slice yields a zero Stats.
func Summarize(cs []*Cluster) Stats {
	if len(cs) == 0 {
		return Stats{}
	}
	s := Stats{Count: len(cs), MinSize: cs[0].Count()}
	var radSum float64
	for _, c := range cs {
		n := c.Count()
		s.Descriptors += n
		if n < s.MinSize {
			s.MinSize = n
		}
		if n > s.MaxSize {
			s.MaxSize = n
		}
		radSum += c.Radius
		if c.Radius > s.MaxRadius {
			s.MaxRadius = c.Radius
		}
	}
	s.MeanSize = float64(s.Descriptors) / float64(s.Count)
	s.MeanRadius = radSum / float64(s.Count)
	return s
}

// LargestSizes returns the populations of the n largest clusters in
// descending order (fewer if len(cs) < n). This is what the paper's
// Figure 1 plots.
func LargestSizes(cs []*Cluster, n int) []int {
	sizes := make([]int, len(cs))
	for i, c := range cs {
		sizes[i] = c.Count()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > n {
		sizes = sizes[:n]
	}
	return sizes
}

// RemoveSmall splits cs into (retained, destroyed) around the population
// threshold: clusters holding fewer than frac × mean population are
// destroyed. This is both BAG's per-pass destruction rule (frac = 0.20 in
// the paper's experiments) and its final outlier rule (§3).
func RemoveSmall(cs []*Cluster, frac float64) (retained, destroyed []*Cluster) {
	if len(cs) == 0 {
		return nil, nil
	}
	total := 0
	for _, c := range cs {
		total += c.Count()
	}
	mean := float64(total) / float64(len(cs))
	cut := frac * mean
	for _, c := range cs {
		if float64(c.Count()) < cut {
			destroyed = append(destroyed, c)
		} else {
			retained = append(retained, c)
		}
	}
	return retained, destroyed
}

// TotalMembers sums cluster populations.
func TotalMembers(cs []*Cluster) int {
	n := 0
	for _, c := range cs {
		n += c.Count()
	}
	return n
}
