// Package repro is a Go reproduction of "The Quality vs. Time Trade-off
// for Approximate Image Descriptor Search" (Sigurðardóttir, Hauksson,
// Jónsson, Amsaleg; ICDE Workshops 2005).
//
// It provides the paper's complete system: 24-dimensional local image
// descriptor collections, four chunk-forming strategies (the paper's BAG
// clustering and SR-tree bulk-load, plus the round-robin strawman and the
// uniform-size-first hybrid the conclusion proposes), the two-file chunk
// index architecture, and the ranked approximate search algorithm with
// the paper's three stop rules.
//
// Quick start:
//
//	coll := repro.GenerateCollection(100000, 42)
//	idx, _ := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 1000}, 1)
//	res, _ := idx.Search(coll.Vec(17), repro.SearchOptions{K: 30, MaxChunks: 5})
//	for _, nb := range res.Neighbors { fmt.Println(nb.ID, nb.Dist) }
//
// There is one index type, ShardedIndex: one simulated 2005 machine per
// shard, every query one walk over the whole fleet. One shard is the
// paper's single machine, and its saved directory is the paper's chunk
// file + index file plus a manifest. Beyond the paper, the package
// serves production-shaped workloads: whole-workload batches run on a
// chunk-major batch engine (SearchBatchInto, SearchBatchStream), whole-image
// bags of descriptors on the multi-query voting layer (MultiSearch), and
// multi-shard stop-rule budgets apply per shard by default or — with
// SearchOptions.GlobalBudget — once across the whole fleet in global
// centroid-rank order, which matches the one-shard index's quality at
// the same total chunk bill.
//
// The internal packages hold the substrates (see README.md and
// DESIGN.md); this package is the stable surface.
package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bag"
	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/hybrid"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/multiquery"
	"repro/internal/roundrobin"
	"repro/internal/scan"
	"repro/internal/search"
	"repro/internal/simdisk"
	"repro/internal/srtree"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Re-exported core types. The facade keeps the internal packages free to
// evolve while examples and downstream users import only "repro".
type (
	// Collection is an in-memory descriptor collection.
	Collection = descriptor.Collection
	// Vector is a point in descriptor space.
	Vector = vec.Vector
	// Neighbor is one search result entry.
	Neighbor = knn.Neighbor
	// ID identifies a descriptor.
	ID = descriptor.ID
	// CostModel is the simulated 2005 disk/CPU model used for timing.
	CostModel = simdisk.Model
	// Result is a search outcome: the neighbors ordered by (distance,
	// ID), and the query's bill — ChunksRead and ChunksSkipped summed over
	// the shards, Simulated (the elapsed time under the 2005 cost model)
	// the max over the shards' machines, which run in parallel, and
	// PerMachine the per-shard breakdown. Wall is the real time from the
	// call's start to the query's completion. Exact reports whether the neighbors are provably the true k-NN
	// of the indexed descriptors; Degraded that at least one chunk had no
	// live replica and was skipped, so Neighbors is the best answer over
	// the reachable data, honestly labeled rather than an error.
	Result = search.Result
	// MachineCost is one shard's share of a search (Result.PerMachine):
	// the chunks it was billed and its simulated clock.
	MachineCost = search.MachineCost
)

// Dims is the descriptor dimensionality used throughout the paper.
const Dims = vec.Dims

// GenerateCollection synthesizes a collection of roughly n local image
// descriptors with the statistical properties the paper's evaluation
// depends on (Zipf-skewed density, halo noise, scattered outliers).
func GenerateCollection(n int, seed int64) *Collection {
	return imagegen.MustGenerate(imagegen.DefaultConfig(n, seed)).Collection
}

// LoadCollection reads a collection file written by SaveCollection.
func LoadCollection(path string) (*Collection, error) { return descriptor.LoadFile(path) }

// SaveCollection writes the collection to path.
func SaveCollection(c *Collection, path string) error { return c.SaveFile(path) }

// DatasetQueries returns n DQ-workload queries (§5.3).
func DatasetQueries(c *Collection, n int, seed int64) ([]Vector, error) {
	return workload.DQ(c, n, seed)
}

// SpaceQueries returns n SQ-workload queries with 5% trimmed ranges (§5.3).
func SpaceQueries(c *Collection, n int, seed int64) ([]Vector, error) {
	return workload.SQ(c, n, 0.05, seed)
}

// ZipfQueries returns n dataset queries with Zipf-skewed repetition
// (exponent s > 1; larger is more skewed): a few descriptors are queried
// over and over while the tail is hit rarely: the shape under which the
// decoded-chunk cache (OpenConfig.CacheBytes) pays off.
func ZipfQueries(c *Collection, n int, s float64, seed int64) ([]Vector, error) {
	return workload.Zipf(c, n, s, seed)
}

// Strategy selects a chunk-forming algorithm.
type Strategy string

// The four chunk-forming strategies.
const (
	// StrategyBAG is the paper's quality-first clustering (§3). It also
	// removes outliers; see ShardedIndex.Outliers.
	StrategyBAG Strategy = "bag"
	// StrategySRTree is the paper's time-first uniform chunking (§2).
	StrategySRTree Strategy = "srtree"
	// StrategyRoundRobin is the §1.1 strawman.
	StrategyRoundRobin Strategy = "roundrobin"
	// StrategyHybrid is the §7 future-work strategy: uniform size first,
	// intra-chunk similarity best-effort.
	StrategyHybrid Strategy = "hybrid"
)

// BuildConfig controls index construction.
type BuildConfig struct {
	Strategy  Strategy
	ChunkSize int // target (SR/RR/hybrid: exact; BAG: mean) descriptors per chunk
	PageSize  int // chunk file page size; 0 means 8 KiB
	// Replication is the number of shards holding a copy of every chunk;
	// 0 or 1 means unreplicated. See BuildSharded.
	Replication int
	Seed        int64
	// Progress receives BAG pass updates when non-nil.
	Progress func(pass, clusters int)
}

// normalizePageSize resolves a BuildConfig page size (0 means the 8 KiB
// default).
func normalizePageSize(pageSize int) int {
	if pageSize <= 0 {
		return chunkfile.DefaultPageSize
	}
	return pageSize
}

// buildClusters forms chunks from the collection with the selected
// strategy — the clustering stage of BuildSharded.
func buildClusters(coll *Collection, cfg BuildConfig) (clusters []*cluster.Cluster, outliers []int, err error) {
	if cfg.ChunkSize < 1 {
		return nil, nil, fmt.Errorf("repro: ChunkSize %d < 1", cfg.ChunkSize)
	}
	switch cfg.Strategy {
	case StrategyBAG:
		bcfg := bag.DefaultConfig(coll.Len(), cfg.ChunkSize)
		bcfg.Seed = cfg.Seed
		bcfg.Progress = cfg.Progress
		snaps, err := bag.Run(coll, bcfg)
		if err != nil {
			return nil, nil, err
		}
		snap := snaps[len(snaps)-1]
		clusters = snap.Clusters
		outliers = snap.Outliers
	case StrategySRTree, "":
		tree, err := srtree.Build(coll, nil, cfg.ChunkSize, 0)
		if err != nil {
			return nil, nil, err
		}
		clusters = tree.Chunks()
	case StrategyRoundRobin:
		var err error
		clusters, err = roundrobin.Chunks(coll, nil, cfg.ChunkSize)
		if err != nil {
			return nil, nil, err
		}
	case StrategyHybrid:
		var err error
		clusters, err = hybrid.Chunks(coll, nil, hybrid.Config{ChunkSize: cfg.ChunkSize, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("repro: unknown strategy %q", cfg.Strategy)
	}
	return clusters, outliers, nil
}

// SearchOptions selects the k and the stop rule (§4.3). Zero values mean
// k=30 and run-to-completion; MaxChunks and MaxTime, when positive, choose
// the approximate stop rules.
type SearchOptions struct {
	K         int
	MaxChunks int           // stop after this many chunks
	MaxTime   time.Duration // stop after this much simulated time
	Overlap   bool          // overlap I/O and CPU in the simulated pipeline
	Model     *CostModel    // nil = calibrated 2005 model
	// GlobalBudget switches a search from the per-shard to the global
	// budget discipline. Either way the query walks every shard's chunks
	// in one global centroid-rank order, each chunk charged to its owning
	// shard's simulated pipeline; Simulated is the max over the shards and
	// ChunksRead their sum. Per shard (the default), every shard applies
	// the stop rule to its own chunks and clock — MaxChunks c reads up to
	// S×c chunks on S shards. Globally, the budget is spent once across
	// the fleet — MaxChunks c reads exactly min(c, total) chunks, MaxTime
	// bounds the max over the shards' simulated machines. See DESIGN.md
	// §5. On one shard both disciplines are the same search.
	GlobalBudget bool
	// Ctx, when non-nil, cancels the search between chunk charges: once
	// the context is cancelled or past its deadline, no further chunk is
	// read or billed and the search returns an error wrapping ctx.Err()
	// (errors.Is against context.Canceled / context.DeadlineExceeded).
	// This is how a serving layer propagates per-request deadlines: an
	// abandoned request stops consuming budget within one chunk. A nil Ctx
	// never stops the search.
	Ctx context.Context
}

// validate reports contradictory or out-of-range options as a diagnostic
// error at the facade boundary, instead of silently clamping. Zero values
// remain the documented defaults (K 0 = 30, no budget = run to
// completion).
func (opts SearchOptions) validate() error {
	if opts.K < 0 {
		return fmt.Errorf("repro: K %d is negative (0 selects the default of 30)", opts.K)
	}
	if opts.MaxChunks < 0 {
		return fmt.Errorf("repro: MaxChunks %d is negative (0 disables the chunk budget)", opts.MaxChunks)
	}
	if opts.MaxTime < 0 {
		return fmt.Errorf("repro: MaxTime %v is negative (0 disables the time budget)", opts.MaxTime)
	}
	if opts.MaxChunks > 0 && opts.MaxTime > 0 {
		return fmt.Errorf("repro: MaxChunks %d and MaxTime %v are conflicting stop rules; set at most one",
			opts.MaxChunks, opts.MaxTime)
	}
	return nil
}

// stopRule maps SearchOptions onto the paper's three stop rules.
func stopRule(opts SearchOptions) search.StopRule {
	if opts.MaxChunks > 0 {
		return search.ChunkBudget(opts.MaxChunks)
	}
	if opts.MaxTime > 0 {
		return search.TimeBudget(opts.MaxTime)
	}
	return search.ToCompletion{}
}

// The multi-descriptor defaults: image voting wants fewer, closer
// matches than a point query's 30, on a deliberately aggressive chunk
// budget — which is also what a serving layer admits a bag at.
const (
	// DefaultMultiK is MultiSearchOptions.K's zero value.
	DefaultMultiK = 10
	// DefaultMultiMaxChunks is MultiSearchOptions.MaxChunks's zero value.
	DefaultMultiMaxChunks = 3
)

// MultiSearchOptions controls a multi-descriptor (whole-image) query.
type MultiSearchOptions struct {
	// K is the per-descriptor neighbor count (0 = DefaultMultiK).
	K int
	// MaxChunks is the per-descriptor chunk budget (0 = DefaultMultiMaxChunks).
	MaxChunks int
	// RankWeighted weights votes by 1/(1+rank).
	RankWeighted bool
	// Overlap selects the overlapped pipeline in the simulated timing.
	Overlap bool
	// GlobalBudget spends each descriptor's MaxChunks budget once across
	// all shards (global centroid-rank order) instead of once per shard —
	// the same discipline as SearchOptions.GlobalBudget.
	GlobalBudget bool
	// Ctx, when non-nil, cancels the bag's searches between chunk charges
	// — the same deadline-propagation contract as SearchOptions.Ctx.
	Ctx context.Context
}

// validate reports out-of-range multi-search options as a diagnostic
// error at the facade boundary; zero values remain the documented
// defaults.
func (opts MultiSearchOptions) validate() error {
	if opts.K < 0 {
		return fmt.Errorf("repro: K %d is negative (0 selects the default of %d)", opts.K, DefaultMultiK)
	}
	if opts.MaxChunks < 0 {
		return fmt.Errorf("repro: MaxChunks %d is negative (0 selects the default of %d)", opts.MaxChunks, DefaultMultiMaxChunks)
	}
	return nil
}

// ImageMatch is one ranked image of a multi-descriptor search.
type ImageMatch = multiquery.ImageScore

// MultiResult is the outcome of a multi-descriptor search.
type MultiResult = multiquery.Result

// Exact returns the true k nearest neighbors of q by sequential scan —
// the paper's ground-truth oracle (§5.4).
func Exact(coll *Collection, q Vector, k int) []Neighbor {
	return scan.KNN(coll, q, k)
}

// Precision returns |approx ∩ truth| / k for two neighbor lists, the
// paper's quality metric.
func Precision(approx, truth []Neighbor) float64 {
	if len(truth) == 0 {
		return 0
	}
	set := make(map[ID]struct{}, len(truth))
	for _, n := range truth {
		set[n.ID] = struct{}{}
	}
	hit := 0
	for _, n := range approx {
		if _, ok := set[n.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
