// Global-budget scatter-gather: the Router's second budget discipline.
//
// The per-shard paths in shard.go apply the stop rule once per shard, so
// a budgeted sharded search reads S× the chunks of the unsharded index at
// the same per-shard budget. The global mode in this file closes that
// gap: every shard's ranked chunk list (the exported search.RankChunks
// order) merges into ONE global centroid-rank order, and a single total
// budget — search.ChunkBudget / search.TimeBudget / search.ToCompletion
// semantics applied globally — is spent walking that order, dispatching
// each charged chunk to the shard that owns it.
//
// The cost model is unchanged: one simulated 2005 machine per shard.
// Each charged chunk advances its owning shard's simdisk.Pipeline (so a
// shard is charged exactly the chunks it served, in its own charge
// order), the Elapsed the stop rule consults — and the merged result
// reports as Simulated — is the max over the shards' pipelines (they run
// in parallel), and ChunksRead is the sum, i.e. the global charge count.
// Every shard pays the index read for its own chunk count before serving,
// exactly as in the per-shard mode.
//
// There is no global walk in this file. The union of the shards is one
// virtual chunkfile.Store (globalStore) that reports its chunk→shard
// machine layout (chunkfile.MachineLayout); a plain batchexec.Engine runs
// over it, and search.Walk — the one per-(query, chunk) step — bills each
// chunk to its owner's pipeline and reports the per-shard breakdown as
// search.Result.PerMachine.
//
// Equivalence pins (global_test.go):
//
//   - Global budget on 1 shard is byte-identical to an engine over the
//     unsharded store, including Elapsed and IndexRead, under all three
//     stop rules.
//   - Global run-to-completion equals the scan oracle (and the unsharded
//     completion search): the suffix minima over the merged order are a
//     valid exactness certificate for the union of the shards.
//   - Global ChunkBudget(B) on S shards reads exactly min(B, total)
//     chunks in total — the per-shard mode's S× multiplier is gone.
package shard

import (
	"errors"

	"repro/internal/chunkfile"
	"repro/internal/multiquery"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/vec"
)

// globalStore presents the union of the shards' stores as one virtual
// chunk store in shard-major chunk order: global chunk g lives on shard
// owner[g] at local index local[g]. Ranking the concatenated metas with
// search.RankChunks — which sorts by (squared centroid distance,
// ascending global index) — therefore yields exactly the k-way merge of
// the per-shard RankChunks lists with cross-shard ties broken by
// (ascending shard, ascending local chunk index): the global
// centroid-rank order the budget is spent in. ReadChunk routes to the
// owning shard's store, so the virtual store inherits the Store
// contract's concurrent-ReadChunk safety from the shard stores.
type globalStore struct {
	r         *Router
	stores    []chunkfile.Store
	dims      int
	metas     []chunkfile.Meta
	centroids []float32 // the shards' centroids concatenated; metas alias it
	owner     []int32   // owning shard per global chunk
	local     []int32   // index within the owning shard's store
}

// newGlobalStore concatenates the shards' logical chunk indexes (the
// primary prefixes): replica chunks are copies, never ranked or walked,
// and every read goes through the views' replicated read path.
func newGlobalStore(r *Router, shards []routedShard, dims int) *globalStore {
	total := 0
	for s := range shards {
		total += len(shards[s].view.Meta())
	}
	g := &globalStore{
		r:      r,
		dims:   dims,
		metas:  make([]chunkfile.Meta, 0, total),
		owner:  make([]int32, 0, total),
		local:  make([]int32, 0, total),
		stores: make([]chunkfile.Store, len(shards)),
	}
	for s := range shards {
		g.stores[s] = shards[s].view
		for ci, m := range shards[s].view.Meta() {
			g.metas = append(g.metas, m)
			g.owner = append(g.owner, int32(s))
			g.local = append(g.local, int32(ci))
		}
	}
	g.centroids = chunkfile.LayoutCentroids(g.metas, dims)
	return g
}

// Dims implements chunkfile.Store.
func (g *globalStore) Dims() int { return g.dims }

// Meta implements chunkfile.Store: the concatenated per-shard chunk
// indexes, shard-major. Callers must not modify it.
func (g *globalStore) Meta() []chunkfile.Meta { return g.metas }

// Centroids implements chunkfile.Store: one matrix for the merged rank,
// the only copy the router makes of the shards' centroids.
func (g *globalStore) Centroids() []float32 { return g.centroids }

// ReadChunk implements chunkfile.Store by routing global chunk i to the
// owning shard's store. Safe for concurrent use with distinct Data
// values, like the shard stores it delegates to.
func (g *globalStore) ReadChunk(i int, data *chunkfile.Data) error {
	err := g.stores[g.owner[i]].ReadChunk(int(g.local[i]), data)
	if err != nil && !errors.Is(err, chunkfile.ErrUnavailable) {
		return &ShardError{Shard: int(g.owner[i]), Err: err}
	}
	return err
}

// Close implements chunkfile.Store as a no-op: the Router owns the shard
// stores and closes them in Router.Close.
func (g *globalStore) Close() error { return nil }

// Machines implements chunkfile.MachineRouter: with the router's
// spread-reads policy on, a read through the virtual store may be served
// by any machine of the fleet, and the owner is per chunk — reported as
// -1 so consumers bill stalls through Layout. With spread off it reports
// one machine, disabling the serving ledger.
func (g *globalStore) Machines() (count, owner int) {
	if g.r.spread.Load() {
		return len(g.stores), -1
	}
	return 1, 0
}

// Layout implements chunkfile.MachineLayout: one simulated machine per
// shard, every chunk billed to its owning shard's — which is all it takes
// for the search layers to run the global discipline's cost model over
// this store. The layout is nominal, independent of the spread policy.
func (g *globalStore) Layout() (owner []int32, machines int) { return g.owner, len(g.stores) }

// RunBatchGlobal executes a workload — a point query is a workload of
// one — spending a single total budget per query across the shards, on
// the engine over the virtual concatenated store. Each query walks the
// global centroid-rank order (the merge of every shard's
// search.RankChunks list, cross-shard ties broken by ascending shard
// index), each processed chunk is charged to its owning shard's simulated
// pipeline, and opts.Stop is applied after every chunk against the global
// chunk count and the max over the shards' simulated clocks. The
// certificate for Exact is the suffix minimum over the merged order —
// valid for the union of the shards, so a run-to-completion global search
// returns the exact global k-NN. A chunk wanted by several queries is
// still read and decoded once.
//
// results[qi] reports ChunksRead as the global total, Elapsed and
// IndexRead as the max over the shards' machines, and PerMachine as one
// entry per shard: the chunks that shard served and its own simulated
// clock. Trace events carry the global chunk ordinal and the chunk's
// index in the virtual store. On one shard the merged order, the single
// pipeline and the certificate all degenerate to the unsharded search,
// byte for byte. The results array is caller-owned exactly as in
// RunBatch; on error no results are valid.
func (r *Router) RunBatchGlobal(queries []vec.Vector, opts batchexec.Options, results []search.Result) error {
	return r.gengine.Run(queries, opts, results)
}

// RunBatchGlobalStream is RunBatchGlobal with streaming completions:
// done(qi) fires exactly once per query the moment the global-budget
// engine retires it, with results[qi] fully written. One engine runs the
// whole fleet's merged walk, so the callback contract is exactly the
// batch engine's RunStream: callbacks for distinct queries may fire
// concurrently and must not block. A nil done is RunBatchGlobal.
func (r *Router) RunBatchGlobalStream(queries []vec.Vector, opts batchexec.Options, results []search.Result, done func(query int)) error {
	return r.gengine.RunStream(queries, opts, results, done)
}

// MultiQueryGlobal runs a multi-descriptor (whole-image) query with the
// bag's per-descriptor chunk budget spent globally: each descriptor's
// search walks the merged centroid-rank order across all shards instead
// of spending the budget once per shard. Aggregation into image votes is
// the same as MultiQuery's.
func (r *Router) MultiQueryGlobal(descriptors []vec.Vector, opts multiquery.Options) (*multiquery.Result, error) {
	return r.multiQueryVia(descriptors, opts, r.RunBatchGlobal)
}
