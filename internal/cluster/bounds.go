package cluster

import (
	"math"

	"repro/internal/vec"
)

// MergeBounds returns a lower and an upper bound on the bounding radius the
// union of a and b would need, computed in O(d) from the cluster summaries
// alone (no member scan).
//
// The merged centroid is the population-weighted mean, so it sits at
// distance d·nb/(na+nb) from a's centroid and d·na/(na+nb) from b's, where
// d is the centroid distance.
//
//   - Upper bound: every member of a is within a.Radius of a's centroid
//     (Radius is maintained as a valid, if possibly non-minimal, bound), so
//     it is within a.Radius + shift of the merged centroid; likewise for b.
//   - Lower bound: by Jensen's inequality the maximum member distance from
//     the merged centroid is at least the distance to either sub-centroid.
//     This bound is valid regardless of whether Radius is minimal.
func MergeBounds(a, b *Cluster) (lo, hi float64) {
	d := vec.Distance(a.Centroid, b.Centroid)
	na, nb := float64(a.Count()), float64(b.Count())
	shiftA := d * nb / (na + nb)
	shiftB := d * na / (na + nb)
	hi = math.Max(a.Radius+shiftA, b.Radius+shiftB)
	lo = math.Max(shiftA, shiftB)
	return lo, hi
}

// MergeApprox absorbs o into c like Merge but sets Radius to the provided
// valid bound instead of re-scanning members. Callers use this on hot merge
// paths and restore near-minimal radii in bulk later (RecomputeRadius).
func (c *Cluster) MergeApprox(o *Cluster, radiusBound float64) {
	for d := range c.linear {
		c.linear[d] += o.linear[d]
	}
	c.Members = append(c.Members, o.Members...)
	c.recomputeCentroid()
	c.Radius = radiusBound
}

// Clone returns an independent deep copy of c.
func (c *Cluster) Clone() *Cluster {
	return &Cluster{
		Centroid: c.Centroid.Clone(),
		Radius:   c.Radius,
		Members:  append([]int(nil), c.Members...),
		linear:   append([]float64(nil), c.linear...),
	}
}
