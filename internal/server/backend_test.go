package server

import (
	"cmp"
	"os"
	"strconv"
	"testing"

	"repro"
	"repro/internal/chunkfile"
	"repro/internal/faultstore"
	"repro/internal/imagegen"
	"repro/internal/multiquery"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/shard"
	"repro/internal/srtree"
)

// faultSeed returns the deterministic fault seed for this run: the
// REPRO_FAULT_SEED environment variable when set (CI pins it), a fixed
// default otherwise.
func faultSeed(t testing.TB) int64 {
	t.Helper()
	if v := os.Getenv("REPRO_FAULT_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("REPRO_FAULT_SEED=%q: %v", v, err)
		}
		return seed
	}
	return 2005
}

// routerBackend adapts a shard.Router to the server's Backend
// interface. The public ShardedIndex facade cannot inject
// fault wrappers around its stores, so the acceptance tests build the
// router directly over faultstore-wrapped stores and serve it through
// this adapter — the same engine over the same store, with Kill/Revive
// handles.
type routerBackend struct {
	r *shard.Router
	e *batchexec.Engine
}

var _ Backend = (*routerBackend)(nil)

func stopOf(opts repro.SearchOptions) search.StopRule {
	if opts.MaxChunks > 0 {
		return search.ChunkBudget(opts.MaxChunks)
	}
	if opts.MaxTime > 0 {
		return search.TimeBudget(opts.MaxTime)
	}
	return search.ToCompletion{}
}

// search runs one query as a batch of one, the way /search does.
func (b *routerBackend) search(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
	res := make([]repro.Result, 1)
	err := b.SearchBatchStream([]repro.Vector{q}, repro.BatchOptions{SearchOptions: opts}, res, nil)
	return &res[0], err
}

// SearchBatchStream runs the batch on the engine, as the facade does.
func (b *routerBackend) SearchBatchStream(queries []repro.Vector, opts repro.BatchOptions, results []repro.Result, done func(query int)) error {
	return b.e.RunStream(queries, batchexec.Options{
		K:            opts.K,
		Stop:         stopOf(opts.SearchOptions),
		Overlap:      opts.Overlap,
		GlobalBudget: opts.GlobalBudget,
		Parallelism:  opts.Parallelism,
		Ctx:          opts.Ctx,
	}, results, done)
}

// MultiSearch votes over one batch of the bag, as the facade does.
func (b *routerBackend) MultiSearch(descriptors []repro.Vector, opts repro.MultiSearchOptions) (*repro.MultiResult, error) {
	srs := make([]repro.Result, len(descriptors))
	err := b.e.Run(descriptors, batchexec.Options{
		K:            cmp.Or(opts.K, repro.DefaultMultiK),
		Stop:         search.ChunkBudget(cmp.Or(opts.MaxChunks, repro.DefaultMultiMaxChunks)),
		Overlap:      opts.Overlap,
		GlobalBudget: opts.GlobalBudget,
		Ctx:          opts.Ctx,
	}, srs)
	if err != nil {
		return nil, err
	}
	return multiquery.Aggregate(srs, opts.RankWeighted), nil
}

func (b *routerBackend) Chunks() int            { return b.r.Chunks() }
func (b *routerBackend) Len() int               { return b.r.Descriptors() }
func (b *routerBackend) Close() error           { return b.r.Close() }
func (b *routerBackend) Shards() int            { return b.r.Shards() }
func (b *routerBackend) ShardDown(s int) bool   { return b.r.ShardDown(s) }
func (b *routerBackend) ShardsDown() int        { return b.r.DownShards() }
func (b *routerBackend) MarkShardDown(s int)    { b.r.MarkShardDown(s) }
func (b *routerBackend) MarkShardUp(s int)      { b.r.MarkShardUp(s) }
func (b *routerBackend) ProbeShard(s int) error { return b.r.ProbeShard(s) }
func (b *routerBackend) ShardLoads() []repro.ShardLoad {
	return b.r.ShardLoads(nil)
}
func (b *routerBackend) CacheStats() repro.CacheStats { return b.r.CacheStats() }

// faultedRouter builds a replicated router over faultstore-wrapped
// in-memory shard stores: the serving stack the acceptance tests point
// the HTTP layer at. Returns the adapter, the per-shard fault handles,
// and the source collection for queries.
func faultedRouter(t testing.TB, n int, seed int64, shards, replication int, cfg faultstore.Config) (*routerBackend, []*faultstore.Store, *repro.Collection) {
	t.Helper()
	const chunkSize, pageSize = 130, 4096
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(n, seed))
	coll := ds.Collection
	tree, err := srtree.Build(coll, nil, chunkSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	clusters := tree.Chunks()
	p, err := shard.PartitionReplicated(clusters, shards, replication, coll.Dims(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(coll, shard.Select(clusters, physical), pageSize), cfg)
		stores[s] = faults[s]
	}
	r, err := shard.NewRouter(stores, p, shard.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &routerBackend{r: r, e: batchexec.New(r, nil)}, faults, coll
}
