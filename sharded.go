package repro

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/multiquery"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/shard"
)

// ShardedIndex is the package's chunk index: a set of chunks partitioned
// across S shards, each shard a complete two-file index (§4.2). A query
// is one walk over every shard's chunks in one global centroid-rank
// order, on one chunk-major query engine over the shard router (the
// fleet as one chunk store), so a run-to-completion search returns the
// exact global k-NN. A single search is a batch of one on the same
// engine. The simulated cost model is one 2005 machine per shard:
// each chunk is charged to its shard's machine, a query's Simulated is
// the max over the shards (they run in parallel) and ChunksRead the sum.
//
// One shard is the paper's single machine: its results are
// byte-identical to the paper's search over one chunk file — same IDs,
// distances, ChunksRead, Simulated and Exact under every stop rule.
//
// Budgets come in two disciplines, selected by
// SearchOptions.GlobalBudget. By default each stop rule applies per
// shard to that shard's own chunks and simulated pipeline (MaxChunks c
// reads up to S×c chunks). With GlobalBudget set, the budget is spent
// once across the fleet — MaxChunks c reads exactly min(c, total)
// chunks, matching the one-shard index's quality at the same total
// bill. See DESIGN.md §5.
type ShardedIndex struct {
	router    *shard.Router
	engine    *batchexec.Engine // the one engine, over the router
	placement *shard.Placement

	onePool  sync.Pool // *oneQuery: SearchInto's batch of one
	bagPool  sync.Pool // *[]Result: MultiSearch's per-descriptor outcomes
	planPool sync.Pool // *search.Plan: MaxReads' plan

	coll  *Collection          // nil for file-opened indexes
	parts [][]*cluster.Cluster // per-shard physical clusters; nil for file-opened indexes

	// Outliers holds the collection positions BAG discarded (empty for
	// the other strategies and for file-opened indexes).
	Outliers []int
}

// newShardedIndex assembles the facade over a router.
func newShardedIndex(router *shard.Router) *ShardedIndex {
	sx := &ShardedIndex{router: router, engine: batchexec.New(router)}
	sx.onePool.New = func() any { return new(oneQuery) }
	sx.bagPool.New = func() any { return new([]Result) }
	sx.planPool.New = func() any { return new(search.Plan) }
	return sx
}

// oneQuery is the query and result slot of a batch of one, pooled so a
// single search allocates nothing.
type oneQuery struct {
	q   [1]Vector
	res [1]Result
}

// BuildSharded forms chunks from the collection with the selected
// strategy and partitions them across the given number of shards,
// balanced by padded on-disk chunk bytes (greedy largest-first, fully
// deterministic). Each shard becomes its own in-memory chunk index, so
// BuildSharded(coll, cfg, 1) is the paper's single-machine index.
//
// With cfg.Replication R > 1 every chunk lives on its primary shard (the
// same balanced assignment, so healthy results are independent of
// replication) plus R−1 replica shards. Replicas are failover copies: a
// chunk is read from its primary while the primary's shard is live, and
// from its first live replica otherwise. With R=2 any single shard can
// fail with zero result degradation, and the replicas of the failed
// shard's chunks are spread over the other shards, so none of them
// absorbs its whole load (DESIGN.md §8). Unreplicated, a shard lost at
// serving time makes queries over its chunks degrade.
func BuildSharded(coll *Collection, cfg BuildConfig, shards int) (*ShardedIndex, error) {
	clusters, outliers, err := buildClusters(coll, cfg)
	if err != nil {
		return nil, err
	}
	placement, err := shard.PartitionReplicated(clusters, shards, cmp.Or(cfg.Replication, 1), coll.Dims())
	if err != nil {
		return nil, err
	}
	parts := make([][]*cluster.Cluster, shards)
	stores := make([]chunkfile.Store, shards)
	for s := 0; s < shards; s++ {
		idxs := append(append([]int(nil), placement.Primary[s]...), placement.Extra[s]...)
		parts[s] = shard.Select(clusters, idxs)
		stores[s] = chunkfile.NewMemStore(coll, parts[s])
	}
	router, err := shard.NewRouter(stores, placement, shard.RouterOptions{})
	if err != nil {
		return nil, err
	}
	sx := newShardedIndex(router)
	sx.placement = placement
	sx.coll = coll
	sx.parts = parts
	sx.Outliers = outliers
	return sx, nil
}

// Save writes the index into the existing directory dir: one
// shard-<i>.chunk / shard-<i>.idx pair per shard (primary chunks
// followed by any replica chunks) plus a manifest, so the reopened index
// has byte-identical chunk layout and simulated timings. A one-shard
// directory is the paper's chunk file + index file (§4.2) plus the
// manifest. The manifest records the replication factor and each shard's
// primary count, all OpenSharded needs to lay the replicas out again.
// Only indexes produced by BuildSharded can be saved.
func (sx *ShardedIndex) Save(dir string) error {
	if sx.coll == nil || sx.parts == nil {
		return fmt.Errorf("repro: index was not built in this process; nothing to save")
	}
	return chunkfile.SaveSharded(sx.coll, sx.parts, sx.placement.NumPrimary, sx.placement.R, dir)
}

// OpenSharded maps an index directory previously written by
// ShardedIndex.Save.
func OpenSharded(dir string) (*ShardedIndex, error) {
	return OpenShardedWith(dir, OpenConfig{})
}

// OpenShardedWith is OpenSharded with options. CacheBytes is one budget
// shared across the shards' stores (hot shards win it). The replica
// placement is laid out again from the manifest's replication factor and
// primary counts (shard.Place), and the open fails, naming a shard, when
// the files disagree with it: a replica whose index entry is not its
// primary's, or a shard with more or fewer chunks than the layout puts
// there.
func OpenShardedWith(dir string, cfg OpenConfig) (*ShardedIndex, error) {
	stores, manifest, err := chunkfile.OpenSharded(dir)
	if err != nil {
		return nil, err
	}
	shardStores := make([]chunkfile.Store, len(stores))
	primary := make([]int, len(stores))
	for i, st := range stores {
		shardStores[i] = st
		primary[i] = manifest.Shards[i].Primary
	}
	placement, err := shard.Place(primary, manifest.Replication)
	var router *shard.Router
	if err == nil {
		router, err = shard.NewRouter(shardStores, placement, shard.RouterOptions{CacheBytes: cfg.CacheBytes})
	}
	if err != nil {
		for _, st := range stores {
			st.Close()
		}
		return nil, err
	}
	return newShardedIndex(router), nil
}

// Close releases every shard's resources.
func (sx *ShardedIndex) Close() error { return sx.router.Close() }

// Shards returns the shard count.
func (sx *ShardedIndex) Shards() int { return sx.router.Shards() }

// Replication returns the layout's replication factor R (1 for an
// unreplicated index).
func (sx *ShardedIndex) Replication() int { return sx.router.Replication() }

// Chunks returns the total number of logical chunks across shards;
// replicas are copies, not extra chunks.
func (sx *ShardedIndex) Chunks() int { return sx.router.Chunks() }

// Len returns the number of distinct descriptors reachable through the
// index (each counted once, however many replicas hold it).
func (sx *ShardedIndex) Len() int { return sx.router.Descriptors() }

// MarkShardDown takes shard s out of rotation, exactly as the router's
// own read path does when the shard's store fails permanently: reads
// fail over to replicas, and chunks with no live replica are skipped
// with Result.Degraded set. The switch for failure drills; the next
// Probe that reads the shard's store returns it to rotation.
func (sx *ShardedIndex) MarkShardDown(s int) { sx.router.MarkShardDown(s) }

// ShardDown reports whether shard s is currently held down.
func (sx *ShardedIndex) ShardDown(s int) bool { return sx.router.ShardDown(s) }

// ShardsDown returns the number of shards currently held down.
func (sx *ShardedIndex) ShardsDown() int { return sx.router.DownShards() }

// Probe reconciles every shard's health with its store: it reads each
// shard's first chunk on the control plane (no failover, retry, cache or
// billing), returns a down shard that reads again to rotation, marks an
// up shard that fails permanently down, and ignores transient failures.
// A server calls it on a timer; a failure drill calls it to end the
// drill.
func (sx *ShardedIndex) Probe() { sx.router.Probe() }

// ShardLoad is one shard's serving-load counters; see
// ShardedIndex.ShardLoads.
type ShardLoad = shard.ShardLoad

// ShardLoads returns per-shard serving-load counters — reads each shard
// actually served — cumulative since construction.
func (sx *ShardedIndex) ShardLoads() []ShardLoad { return sx.router.ShardLoads(nil) }

// Search runs one query across the shards.
func (sx *ShardedIndex) Search(q Vector, opts SearchOptions) (*Result, error) {
	res := &Result{}
	if err := sx.SearchInto(q, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SearchInto runs one query across the shards, writing the outcome into
// res. By default MaxChunks and MaxTime budgets apply per shard
// (each shard is its own simulated machine); with opts.GlobalBudget they
// are spent once across the fleet in global centroid-rank order. Either
// way Simulated is the max over the shards and ChunksRead their sum. The
// query runs as a batch of one through SearchBatchInto's code, so its
// outcome is byte-identical to the same query inside any batch. The
// Neighbors and PerMachine slices already in res are reused when they
// have capacity.
func (sx *ShardedIndex) SearchInto(q Vector, opts SearchOptions, res *Result) error {
	one := sx.onePool.Get().(*oneQuery)
	defer sx.onePool.Put(one)
	one.q[0], one.res[0] = q, *res
	err := sx.SearchBatchStream(one.q[:], BatchOptions{SearchOptions: opts}, one.res[:], nil)
	if err == nil {
		*res = one.res[0]
	}
	one.q[0], one.res[0] = nil, Result{}
	return err
}

// MaxReads returns the most chunks one query under opts can read: the
// largest ChunksRead it can report, on any query, healthy or degraded. It
// is the walk's own bound (search.Plan.MaxReads) over this index's shard
// layout — Σ over shards of min(MaxChunks, the shard's chunks) per shard,
// min(MaxChunks, Chunks()) under GlobalBudget, what the cost model lets
// each shard's machine charge within MaxTime plus the chunk that crosses
// it, and every chunk run to completion. A serving layer prices a request
// at MaxReads per query. opts is not validated; K and Ctx do not matter.
func (sx *ShardedIndex) MaxReads(opts SearchOptions) int {
	p := sx.planPool.Get().(*search.Plan)
	defer sx.planPool.Put(p)
	defer p.Release()
	if err := p.Reset(sx.router, opts.K, stopRule(opts), opts.GlobalBudget, opts.Overlap, nil); err != nil {
		return sx.Chunks() // the router's layout is whole; no walk reads more
	}
	return p.MaxReads()
}

// MultiSearch implements the paper's §7 follow-up: query with a whole
// image's bag of local descriptors, aggregate per-descriptor approximate
// searches into image votes, and return the ranked source images. The
// bag is a natural batch: it runs through SearchBatchStream, then votes
// (multiquery.Aggregate), so each descriptor's outcome is the one the
// same query gets in any batch. The per-descriptor results live in a
// pooled arena, recycled once the vote has read them. The
// per-descriptor chunk budget applies per shard — or once across the
// fleet with opts.GlobalBudget.
func (sx *ShardedIndex) MultiSearch(descriptors []Vector, opts MultiSearchOptions) (*MultiResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(descriptors) == 0 {
		return nil, errors.New("repro: no query descriptors")
	}
	bag := sx.bagPool.Get().(*[]Result)
	defer sx.bagPool.Put(bag)
	if len(*bag) < len(descriptors) {
		*bag = append(*bag, make([]Result, len(descriptors)-len(*bag))...)
	}
	srs := (*bag)[:len(descriptors)]
	err := sx.SearchBatchStream(descriptors, BatchOptions{SearchOptions: SearchOptions{
		K:            cmp.Or(opts.K, DefaultMultiK),
		MaxChunks:    cmp.Or(opts.MaxChunks, DefaultMultiMaxChunks),
		Overlap:      opts.Overlap,
		GlobalBudget: opts.GlobalBudget,
		Ctx:          opts.Ctx,
	}}, srs, nil)
	if err != nil {
		return nil, err
	}
	return multiquery.Aggregate(srs, opts.RankWeighted), nil
}
