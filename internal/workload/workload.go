// Package workload generates the paper's two query workloads (§5.3).
//
// DQ ("dataset queries") are randomly selected descriptors from the
// collection itself, simulating queries that have a good match. SQ
// ("space queries") are synthesized from the value distribution of the
// collection: for each dimension the top and bottom 5% of values are
// discarded and queries draw uniformly from the remaining range,
// simulating queries with no match in the collection. Zipf adds a third,
// skewed workload: dataset queries repeated with Zipf popularity, as a
// replica-placement sample or a hot-cache benchmark pool.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/descriptor"
	"repro/internal/vec"
)

// DQ returns n dataset queries: vectors of randomly selected descriptors
// (cloned, so the collection may be released). Selection is without
// replacement when n <= coll.Len().
func DQ(coll *descriptor.Collection, n int, seed int64) ([]vec.Vector, error) {
	if coll.Len() == 0 {
		return nil, fmt.Errorf("workload: empty collection")
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: need positive query count, got %d", n)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]vec.Vector, 0, n)
	if n <= coll.Len() {
		perm := r.Perm(coll.Len())
		for _, i := range perm[:n] {
			out = append(out, coll.Vec(i).Clone())
		}
		return out, nil
	}
	for len(out) < n {
		out = append(out, coll.Vec(r.Intn(coll.Len())).Clone())
	}
	return out, nil
}

// TrimmedRanges computes, per dimension, the value range remaining after
// discarding the bottom and top trim fraction of values (paper: 5%).
func TrimmedRanges(coll *descriptor.Collection, trim float64) (lo, hi vec.Vector, err error) {
	if coll.Len() == 0 {
		return nil, nil, fmt.Errorf("workload: empty collection")
	}
	if trim < 0 || trim >= 0.5 {
		return nil, nil, fmt.Errorf("workload: trim %v out of [0, 0.5)", trim)
	}
	dims := coll.Dims()
	n := coll.Len()
	lo = make(vec.Vector, dims)
	hi = make(vec.Vector, dims)
	vals := make([]float32, n)
	for d := 0; d < dims; d++ {
		for i := 0; i < n; i++ {
			vals[i] = coll.Vec(i)[d]
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		cut := int(float64(n) * trim)
		if 2*cut >= n {
			cut = (n - 1) / 2
		}
		lo[d] = vals[cut]
		hi[d] = vals[n-1-cut]
	}
	return lo, hi, nil
}

// Zipf returns n dataset queries with Zipf-skewed repetition: query
// targets are drawn from a Zipf(s, v=1) distribution over the collection
// positions visited in a seeded random order, so a few descriptors are
// queried over and over while the tail is hit rarely — the skewed access
// pattern of Tavenard et al. (PAPERS.md), under which a chunk cache
// pays off. s must be > 1 (larger is more skewed; ~1.3 is a typical
// web-workload shape). Vectors are cloned.
func Zipf(coll *descriptor.Collection, n int, s float64, seed int64) ([]vec.Vector, error) {
	if coll.Len() == 0 {
		return nil, fmt.Errorf("workload: empty collection")
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: need positive query count, got %d", n)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: Zipf exponent %v must be > 1", s)
	}
	r := rand.New(rand.NewSource(seed))
	// Decouple popularity rank from collection order: rank k maps to a
	// random position, so the hot set is not just the first descriptors.
	perm := r.Perm(coll.Len())
	z := rand.NewZipf(r, s, 1, uint64(coll.Len()-1))
	out := make([]vec.Vector, n)
	for qi := range out {
		out[qi] = coll.Vec(perm[z.Uint64()]).Clone()
	}
	return out, nil
}

// SQ returns n space queries drawn uniformly from the per-dimension
// trimmed ranges of the collection (trim = 0.05 in the paper).
func SQ(coll *descriptor.Collection, n int, trim float64, seed int64) ([]vec.Vector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need positive query count, got %d", n)
	}
	lo, hi, err := TrimmedRanges(coll, trim)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	dims := coll.Dims()
	out := make([]vec.Vector, n)
	for qi := range out {
		q := make(vec.Vector, dims)
		for d := 0; d < dims; d++ {
			q[d] = lo[d] + float32(r.Float64())*(hi[d]-lo[d])
		}
		out[qi] = q
	}
	return out, nil
}
