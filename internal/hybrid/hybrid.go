// Package hybrid implements the chunk-forming strategy the paper's
// conclusion (§7) calls for as future work: "a clustering algorithm which
// keeps uniform chunk size as the first priority, but attempts to achieve
// the smallest possible intra-chunk dissimilarity".
//
// The implementation is a capacity-constrained (balanced) k-means:
// k = ceil(n / chunkSize) centroids are refined by Lloyd iterations in
// which points are assigned greedily — closest pairs first — to their
// nearest centroid that still has capacity. Every chunk therefore holds
// at most chunkSize descriptors (uniform size first), while the k-means
// objective pulls chunk contents together (best-effort density second).
package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// Config controls the balanced k-means.
type Config struct {
	ChunkSize int // capacity per chunk; also determines k
	Iters     int // Lloyd iterations (0 means 5)
	Seed      int64
}

// Chunks clusters the descriptors at the given indexes (nil = whole
// collection) into uniform-capacity chunks.
func Chunks(coll *descriptor.Collection, indexes []int, cfg Config) ([]*cluster.Cluster, error) {
	if cfg.ChunkSize < 1 {
		return nil, fmt.Errorf("hybrid: chunk size %d < 1", cfg.ChunkSize)
	}
	iters := cfg.Iters
	if iters == 0 {
		iters = 5
	}
	if indexes == nil {
		indexes = make([]int, coll.Len())
		for i := range indexes {
			indexes[i] = i
		}
	}
	n := len(indexes)
	if n == 0 {
		return nil, nil
	}
	k := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
	capacity := (n + k - 1) / k

	r := rand.New(rand.NewSource(cfg.Seed))
	dims := coll.Dims()

	// Seed centroids with k distinct sample points.
	centroids := make([]vec.Vector, k)
	perm := r.Perm(n)
	for c := 0; c < k; c++ {
		centroids[c] = coll.Vec(indexes[perm[c]]).Clone()
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		assignBalanced(coll, indexes, centroids, capacity, assign)
		// Recompute centroids from the assignment.
		acc := make([][]float64, k)
		cnt := make([]int, k)
		for c := range acc {
			acc[c] = make([]float64, dims)
		}
		for pos, idx := range indexes {
			c := assign[pos]
			v := coll.Vec(idx)
			for d, x := range v {
				acc[c][d] += float64(x)
			}
			cnt[c]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] == 0 {
				// Re-seed an empty centroid at a random point.
				centroids[c] = coll.Vec(indexes[r.Intn(n)]).Clone()
				continue
			}
			inv := 1 / float64(cnt[c])
			for d := 0; d < dims; d++ {
				centroids[c][d] = float32(acc[c][d] * inv)
			}
		}
	}
	assignBalanced(coll, indexes, centroids, capacity, assign)

	members := make([][]int, k)
	for pos, idx := range indexes {
		members[assign[pos]] = append(members[assign[pos]], idx)
	}
	out := make([]*cluster.Cluster, 0, k)
	for _, m := range members {
		if len(m) > 0 {
			out = append(out, cluster.NewFromMembers(coll, m))
		}
	}
	return out, nil
}

// assignBalanced assigns each point to the nearest centroid with spare
// capacity, processing points in order of their distance to their overall
// nearest centroid so that the points with the clearest preference claim
// their slot first. The centroids are laid out once as row-major rows, so
// each point takes its k distances in one vec.SquaredDistancesTo call.
func assignBalanced(coll *descriptor.Collection, indexes []int, centroids []vec.Vector, capacity int, assign []int) {
	n := len(indexes)
	k := len(centroids)
	dims := coll.Dims()
	rows := make([]float32, 0, k*dims)
	for _, c := range centroids {
		rows = append(rows, c...)
	}
	d2 := make([]float64, k)
	type pref struct {
		pos  int
		best float64
	}
	prefs := make([]pref, n)
	for pos, idx := range indexes {
		vec.SquaredDistancesTo(coll.Vec(idx), rows, dims, d2)
		best := math.Inf(1)
		for _, d := range d2 {
			if d < best {
				best = d
			}
		}
		prefs[pos] = pref{pos, best}
	}
	sort.Slice(prefs, func(a, b int) bool { return prefs[a].best < prefs[b].best })

	// Centroids are scanned in ascending order with a strict <, so a tie
	// goes to the lowest index.
	load := make([]int, k)
	for _, p := range prefs {
		vec.SquaredDistancesTo(coll.Vec(indexes[p.pos]), rows, dims, d2)
		bestC, bestD := -1, math.Inf(1)
		for c, d := range d2 {
			if load[c] < capacity && d < bestD {
				bestC, bestD = c, d
			}
		}
		if bestC < 0 {
			// All centroids full (possible only by rounding); spill into
			// the least-loaded one.
			minLoad := load[0]
			bestC = 0
			for c := 1; c < k; c++ {
				if load[c] < minLoad {
					minLoad, bestC = load[c], c
				}
			}
		}
		assign[p.pos] = bestC
		load[bestC]++
	}
}
