// Package shard is the sharded index layer: it partitions a clustering
// across S shards, each shard a complete chunk index of its own (one
// chunkfile.Store served by one batchexec.Engine), and routes batch and
// multi-descriptor queries scatter-gather across the shards — a point
// query is a batch of one.
//
// The cost model extends the repo convention of one simulated 2005
// machine per query to one simulated 2005 machine *per shard*: every
// shard charges a query's chunks to its own per-query simdisk.Pipeline
// (in that shard's local rank order, with the stop rule applied after
// every charged chunk), and the merged result reports the *max* of the
// per-shard simulated times — the shards run in parallel — while
// ChunksRead is the *sum* of the work they did. Simulated time is never
// wall-aggregated across shards or queries.
//
// Stop-rule budgets come in two disciplines on that one cost model: the
// per-shard paths (Router.RunBatch, MultiQuery) let every shard spend
// the budget independently on its local chunk ranking, while the global
// paths (Router.RunBatchGlobal, MultiQueryGlobal —
// see global.go and DESIGN.md §7) spend one total budget across the
// fleet in global centroid-rank order, still charging each chunk to its
// owning shard's pipeline.
//
// Per-shard results merge through knn.Less, so merged neighbor lists are
// deterministic, and a run-to-completion search is provably the exact
// global k-NN: any global top-k descriptor is within the top k of its own
// shard, so the union of per-shard exact top-k lists contains the global
// top k, and every shard's exactness certificate (suffix bound) holds
// locally.
package shard

import (
	"fmt"
	"slices"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
)

// Partition assigns clusters to shards, balancing the shards by padded
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
func Partition(clusters []*cluster.Cluster, shards, dims, pageSize int) ([][]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	type weighted struct {
		idx   int
		bytes int64
	}
	order := make([]weighted, len(clusters))
	for i, cl := range clusters {
		order[i] = weighted{idx: i, bytes: int64(chunkfile.PaddedBytes(cl.Count(), dims, pageSize))}
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

// PartitionHeated assigns clusters to shards balancing by *expected
// served load* instead of storage: each cluster's load unit is
// heat[i] × its padded on-disk bytes — the expected bytes a skewed
// workload pulls from it — so under workload.Zipf the hot clusters
// spread across the shards and the hottest shard stops dominating the
// merged Simulated (= max over shards). Negative heat entries are
// treated as zero.
//
// The procedure is the same greedy LPT as Partition and equally
// deterministic: clusters are taken heaviest-load first (ties by larger
// padded bytes, then ascending cluster index) and each goes to the shard
// with the least placed heat-load (ties by least placed bytes, then the
// lowest shard index — so equal-heat clusters, including all clusters of
// a cold tail, still balance by bytes). Each shard's cluster indexes
// come out in ascending original order, so a 1-shard partition is
// exactly the identity, preserving the 1-shard ≡ unsharded equivalence.
//
// A nil heat, or one with no positive entry (the documented zero-heat
// fallback of Heat on an empty sample), carries no skew signal:
// PartitionHeated then degenerates to the byte-balanced Partition
// instead of letting all-equal loads silently skew the placement.
func PartitionHeated(clusters []*cluster.Cluster, shards, dims, pageSize int, heat []float64) ([][]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	if heat != nil && len(heat) != len(clusters) {
		return nil, fmt.Errorf("shard: heat length %d != cluster count %d", len(heat), len(clusters))
	}
	if !heatUsable(heat) {
		return Partition(clusters, shards, dims, pageSize)
	}
	type weighted struct {
		idx   int
		load  float64
		bytes int64
	}
	order := make([]weighted, len(clusters))
	for i, cl := range clusters {
		bytes := int64(chunkfile.PaddedBytes(cl.Count(), dims, pageSize))
		h := heat[i]
		if h < 0 {
			h = 0
		}
		order[i] = weighted{idx: i, load: h * float64(bytes), bytes: bytes}
	}
	slices.SortFunc(order, func(a, b weighted) int {
		switch {
		case a.load > b.load:
			return -1
		case a.load < b.load:
			return 1
		}
		switch {
		case a.bytes > b.bytes:
			return -1
		case a.bytes < b.bytes:
			return 1
		}
		return a.idx - b.idx
	})

	assign := make([][]int, shards)
	loads := make([]float64, shards)
	byteLoads := make([]int64, shards)
	for _, w := range order {
		lightest := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[lightest] ||
				(loads[s] == loads[lightest] && byteLoads[s] < byteLoads[lightest]) {
				lightest = s
			}
		}
		assign[lightest] = append(assign[lightest], w.idx)
		loads[lightest] += w.load
		byteLoads[lightest] += w.bytes
	}
	for _, idxs := range assign {
		slices.Sort(idxs)
	}
	return assign, nil
}

// heatUsable reports whether a heat vector carries any skew signal: a
// nil heat, an empty one, or one with no positive entry is unusable, and
// the heat-aware placements fall back to their heat-free behavior.
func heatUsable(heat []float64) bool {
	for _, h := range heat {
		if h > 0 {
			return true
		}
	}
	return false
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
