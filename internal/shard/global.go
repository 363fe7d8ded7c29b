// Package shard is the sharded index layer: it partitions a clustering
// across S shards, each shard one simulated 2005 machine holding a chunk
// file of its own, replicates chunks across shards for availability, and
// serves queries over the whole fleet as one walk per query.
//
// The shards' logical chunk indexes concatenate into one virtual
// chunkfile.Store (globalStore) that reports its chunk→shard machine
// layout (chunkfile.MachineLayout). The Router's one batchexec.Engine runs
// over it: a query ranks the fleet's chunks with one kernel call, reads
// them in that order into one k-NN heap, and search.Walk bills each chunk
// to its owning shard's simdisk.Pipeline, so a shard is charged exactly
// the chunks it served, in its own charge order. Elapsed is the max over
// the shards' clocks (the machines run in parallel), ChunksRead the sum,
// and PerMachine the per-shard breakdown. Nothing is scattered or
// merged: a point query runs on the calling goroutine.
//
// The stop rule's budget comes in two disciplines on that one walk
// (batchexec.Options.GlobalBudget):
//
//   - Per-shard (the default): every shard consults the rule only after
//     its own charges, against its own chunk count, its own clock, and the
//     lowest bound over its own unread chunks, and the walk passes over a
//     shard whose rule fired. S shards at ChunkBudget(b) therefore read up
//     to S×b chunks — each shard its own b best — exactly what S
//     independent machines would read. The k-th distance the rule sees is
//     the fleet's, never larger than any one shard's, so ToCompletion
//     stops each shard no later than an independent search would and still
//     returns the exact k-NN.
//   - Global: one total budget spent in the fleet's rank order —
//     ChunkBudget(B) reads exactly min(B, total) chunks, the fleet's B
//     best, and the certificate is the suffix minimum over the merged order.
//
// Equivalence pins: one shard is byte-identical to a bare engine over the
// unsharded store under either discipline; the per-shard discipline is
// byte-identical to S independent engines merged under the chunk and time
// budgets (TestPerShardMatchesIndependentShards); run to completion, both
// equal the scan oracle; the global budget B reads the unsharded index's
// budget-B chunks.
package shard

import (
	"errors"

	"repro/internal/chunkfile"
)

// globalStore presents the union of the shards' logical chunks (their
// primary prefixes: replica chunks are copies, never ranked or walked) as
// one virtual chunk store in shard-major chunk order: global chunk g lives
// on shard owner[g] at local index local[g]. Ranking the concatenated
// metas — by (squared centroid distance, ascending global index) —
// therefore orders every shard's chunks exactly as ranking that shard alone
// would, with cross-shard ties broken by ascending shard. ReadChunk goes
// through the router's replicated, health-aware read path, so the virtual
// store inherits the Store contract's concurrent-ReadChunk safety from the
// shard stores.
type globalStore struct {
	r         *Router
	metas     []chunkfile.Meta
	centroids []float32 // the shards' centroids concatenated; metas alias it
	owner     []int32   // owning shard per global chunk
	local     []int32   // index within the owning shard's store
}

// newGlobalStore concatenates the router's shards' primary chunks.
func newGlobalStore(r *Router) *globalStore {
	g := &globalStore{r: r}
	for s := range r.shards {
		for ci, m := range r.shards[s].store.Meta()[:r.placement.NumPrimary[s]] {
			g.metas = append(g.metas, m)
			g.owner = append(g.owner, int32(s))
			g.local = append(g.local, int32(ci))
		}
	}
	g.centroids = chunkfile.LayoutCentroids(g.metas, r.dims)
	return g
}

// Dims implements chunkfile.Store.
func (g *globalStore) Dims() int { return g.r.dims }

// Meta implements chunkfile.Store: the concatenated per-shard chunk
// indexes, shard-major. Callers must not modify it.
func (g *globalStore) Meta() []chunkfile.Meta { return g.metas }

// Centroids implements chunkfile.Store: one matrix for the fleet's rank,
// the only copy the router makes of the shards' centroids.
func (g *globalStore) Centroids() []float32 { return g.centroids }

// ReadChunk implements chunkfile.Store via the router's replicated read
// path: retry on transient errors, fail over from the primary to the
// first live replica, report chunkfile.ErrUnavailable (wrapped in
// ErrAllReplicasDown) when no placement can serve the chunk, and wrap any
// other failure in a ShardError naming the owning shard. The simulated
// cost of failed attempts is returned in data.Stall per the
// chunkfile.Data contract.
func (g *globalStore) ReadChunk(i int, data *chunkfile.Data) error {
	err := g.r.readChunk(int(g.owner[i]), int(g.local[i]), data)
	if err != nil && !errors.Is(err, chunkfile.ErrUnavailable) {
		return &ShardError{Shard: int(g.owner[i]), Err: err}
	}
	return err
}

// Close implements chunkfile.Store as a no-op: the Router owns the shard
// stores and closes them in Router.Close.
func (g *globalStore) Close() error { return nil }

// Layout implements chunkfile.MachineLayout: one simulated machine per
// shard, every chunk billed to its owning shard's — which is all it takes
// for the walk to run the cost model over the fleet.
func (g *globalStore) Layout() (owner []int32, machines int) {
	return g.owner, len(g.r.shards)
}
