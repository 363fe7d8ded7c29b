// Balanced assignment of clusters to shards: the placement half of the
// shard layer (replica.go adds the copies).

package shard

import (
	"fmt"
	"slices"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
)

// partition assigns clusters to shards, balancing the shards by padded
// on-disk chunk bytes (chunkfile.PaddedBytes): clusters are taken largest
// first and each goes to the currently lightest shard — the greedy LPT
// heuristic, which bounds the heaviest shard within 4/3 of optimal. The
// procedure is fully deterministic: equal-size clusters are taken in
// ascending cluster order and load ties break toward the lowest shard
// index, so the same clustering always yields the same partition.
//
// The returned assignment holds each shard's cluster indexes in
// ascending original order. Preserving the original relative order
// inside every shard keeps chunk-order-dependent tie-breaks (chunk
// ranking at equal centroid distance) aligned with the unsharded index;
// in particular a 1-shard partition is exactly the identity, which is
// what pins the 1-shard ≡ unsharded equivalence.
//
// Shards may come out empty when there are fewer clusters than shards; an
// empty shard serves an empty chunk index and every query over it is
// trivially exact.
func partition(clusters []*cluster.Cluster, shards, dims int) ([][]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	type weighted struct {
		idx   int
		bytes int64
	}
	order := make([]weighted, len(clusters))
	for i, cl := range clusters {
		order[i] = weighted{idx: i, bytes: int64(chunkfile.PaddedBytes(cl.Count(), dims))}
	}
	slices.SortFunc(order, func(a, b weighted) int {
		switch {
		case a.bytes > b.bytes:
			return -1
		case a.bytes < b.bytes:
			return 1
		}
		return a.idx - b.idx
	})

	assign := make([][]int, shards)
	loads := make([]int64, shards)
	for _, w := range order {
		lightest := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[lightest] {
				lightest = s
			}
		}
		assign[lightest] = append(assign[lightest], w.idx)
		loads[lightest] += w.bytes
	}
	for _, idxs := range assign {
		slices.Sort(idxs)
	}
	return assign, nil
}

// Select materializes one shard of an assignment: the clusters at the
// given indexes, in assignment order.
func Select(clusters []*cluster.Cluster, idxs []int) []*cluster.Cluster {
	part := make([]*cluster.Cluster, len(idxs))
	for i, ci := range idxs {
		part[i] = clusters[ci]
	}
	return part
}
