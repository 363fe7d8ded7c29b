// Package shard is the sharded index layer: it partitions a clustering
// across S shards, each shard one simulated 2005 machine holding a chunk
// file of its own, replicates chunks across shards for availability, and
// presents the whole fleet as one chunk store.
//
// The Router is that store: the shards' logical chunk indexes
// concatenated shard-major, one centroid matrix for the fleet, and the
// chunk→shard machine layout (chunkfile.MachineLayout). Its ReadChunk is
// the replicated, health-aware read path. One batchexec.Engine runs over
// it: a query ranks the fleet's chunks with one kernel call, reads them in
// that order into one k-NN heap, and search.Walk bills each chunk to its
// owning shard's simdisk.Pipeline, so a shard is charged exactly the
// chunks it served, in its own charge order. Simulated is the max over
// the shards' clocks (the machines run in parallel), ChunksRead the sum,
// and PerMachine the per-shard breakdown. Nothing is scattered or merged,
// and the router neither runs queries nor prices time: it reports how
// many read attempts failed, and the walk bills them under the run's cost
// model.
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
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chunkcache"
	"repro/internal/chunkfile"
)

// Typed failure-path errors. ErrAllReplicasDown wraps
// chunkfile.ErrUnavailable, so the search layers recognize a chunk with
// no live replica as skippable and complete the query in degraded mode.
var (
	// ErrShardDown marks a shard whose store failed permanently: the
	// router's health tracking has taken it out of rotation and no read
	// is routed to it until ResetHealth.
	ErrShardDown = errors.New("shard: shard down")
	// ErrAllReplicasDown reports that a chunk could not be served by any
	// of its R placements. It wraps chunkfile.ErrUnavailable: queries
	// skip the chunk and degrade instead of aborting.
	ErrAllReplicasDown = fmt.Errorf("shard: all replicas down: %w", chunkfile.ErrUnavailable)
)

// ShardError reports which shard's store failed a read with an error
// other than unavailability.
type ShardError struct {
	Shard int
	Err   error
}

// Error implements the error interface.
func (e *ShardError) Error() string { return fmt.Sprintf("shard: shard %d: %v", e.Shard, e.Err) }

// Unwrap returns the underlying error.
func (e *ShardError) Unwrap() error { return e.Err }

// routedShard is one shard's physical store and the store reads actually
// go through: the physical store behind the decoded-chunk cache when one
// is configured (cached == read then), else the physical store itself.
// Control-plane reads (ProbeShard) always go to the raw store, so probing
// observes the disk, not the cache.
type routedShard struct {
	store  chunkfile.Store
	read   chunkfile.Store
	cached *chunkcache.CachingStore
}

// Router is the fleet as one chunk store (see the package
// documentation). It is safe for concurrent use.
type Router struct {
	shards    []routedShard
	dims      int
	placement *Placement
	// Health state: down[s] is sticky-true once shard s's store failed
	// permanently, loads[s] counts the chunk reads shard s has served
	// (the counter behind ShardLoads; reads never consult it), downCount
	// is the number of down shards.
	down      []atomic.Bool
	loads     []atomic.Int64
	downCount atomic.Int32
	// The fleet's chunks are the shards' primary prefixes (replica chunks
	// are copies, never ranked or walked) concatenated shard-major: chunk g
	// lives on shard owner[g] at local index local[g]. Ranking the
	// concatenated metas by (squared centroid distance, ascending index)
	// therefore orders every shard's chunks exactly as ranking that shard
	// alone would, with cross-shard ties broken by ascending shard.
	metas     []chunkfile.Meta
	centroids []float32 // the shards' centroids concatenated; metas alias it
	owner     []int32
	local     []int32
	cache     *chunkcache.Cache // shared by every shard's read store; nil when off
}

var (
	_ chunkfile.Store         = (*Router)(nil)
	_ chunkfile.MachineLayout = (*Router)(nil)
)

// RouterOptions bundles the optional knobs of a router.
type RouterOptions struct {
	// CacheBytes, when positive, fronts every shard's physical store with
	// one shared decoded-chunk cache of that many bytes (see
	// internal/chunkcache): the budget is global, hot shards win it.
	// Reads go to a chunk's primary while its shard is live, so a
	// replicated index caches each hot chunk once, as an unreplicated one
	// does. It serves the read path only; probes and direct Store(i)
	// access always observe the disk. A cache changes nothing else —
	// results, simulated times and counters are byte-identical with or
	// without it.
	CacheBytes int64
}

// NewRouter builds a Router over one physical store per shard and the
// placement describing each store's primary prefix and the replica
// locations of every logical chunk (see PartitionReplicated). Queries walk
// the logical chunks; replicas serve failovers. A nil placement means
// unreplicated: every store's chunks are all primary (R=1), so a chunk
// whose shard dies has no replica and queries over it degrade.
func NewRouter(stores []chunkfile.Store, placement *Placement, opts RouterOptions) (*Router, error) {
	if len(stores) == 0 {
		return nil, errors.New("shard: no stores")
	}
	if placement == nil {
		placement = &Placement{
			R:          1,
			NumPrimary: make([]int, len(stores)),
			Replicas:   make([][][]ChunkLoc, len(stores)),
		}
		for s, st := range stores {
			placement.NumPrimary[s] = len(st.Meta())
			placement.Replicas[s] = make([][]ChunkLoc, len(st.Meta()))
		}
	}
	if err := validatePlacement(stores, placement); err != nil {
		return nil, err
	}
	dims := stores[0].Dims()
	r := &Router{dims: dims, placement: placement}
	r.down = make([]atomic.Bool, len(stores))
	r.loads = make([]atomic.Int64, len(stores))
	for i, st := range stores {
		if st.Dims() != dims {
			return nil, fmt.Errorf("shard: shard %d dims %d != shard 0 dims %d", i, st.Dims(), dims)
		}
		r.shards = append(r.shards, routedShard{store: st, read: st})
	}
	if opts.CacheBytes > 0 {
		r.cache = chunkcache.New(opts.CacheBytes)
		for i := range r.shards {
			r.shards[i].cached = chunkcache.NewStore(r.shards[i].store, r.cache)
			r.shards[i].read = r.shards[i].cached
		}
	}
	for s := range r.shards {
		for ci, m := range r.shards[s].store.Meta()[:placement.NumPrimary[s]] {
			r.metas = append(r.metas, m)
			r.owner = append(r.owner, int32(s))
			r.local = append(r.local, int32(ci))
		}
	}
	r.centroids = chunkfile.LayoutCentroids(r.metas, dims)
	return r, nil
}

// validatePlacement cross-checks a placement against the physical
// stores, so a stale or corrupt sidecar fails at router construction
// with a diagnostic error instead of an out-of-range read mid-query.
func validatePlacement(stores []chunkfile.Store, p *Placement) error {
	if p.R < 1 {
		return fmt.Errorf("shard: placement replication factor %d < 1", p.R)
	}
	if len(p.NumPrimary) != len(stores) || len(p.Replicas) != len(stores) {
		return fmt.Errorf("shard: placement describes %d shards, router has %d", len(p.NumPrimary), len(stores))
	}
	for s, st := range stores {
		if p.NumPrimary[s] < 0 || p.NumPrimary[s] > len(st.Meta()) {
			return fmt.Errorf("shard: placement shard %d: %d primary chunks, store has %d", s, p.NumPrimary[s], len(st.Meta()))
		}
		if len(p.Replicas[s]) != p.NumPrimary[s] {
			return fmt.Errorf("shard: placement shard %d: %d replica lists for %d primary chunks", s, len(p.Replicas[s]), p.NumPrimary[s])
		}
		for i, locs := range p.Replicas[s] {
			if len(locs) != p.R-1 {
				return fmt.Errorf("shard: placement shard %d chunk %d: %d replicas, want %d", s, i, len(locs), p.R-1)
			}
			for _, loc := range locs {
				if int(loc.Shard) < 0 || int(loc.Shard) >= len(stores) || int(loc.Shard) == s {
					return fmt.Errorf("shard: placement shard %d chunk %d: replica shard %d invalid", s, i, loc.Shard)
				}
				if int(loc.Chunk) < 0 || int(loc.Chunk) >= len(stores[loc.Shard].Meta()) {
					return fmt.Errorf("shard: placement shard %d chunk %d: replica chunk %d outside shard %d's %d chunks",
						s, i, loc.Chunk, loc.Shard, len(stores[loc.Shard].Meta()))
				}
			}
		}
	}
	return nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// ShardLoad is one shard's serving-load counters: the chunk reads it has
// actually served, wherever the chunks' primaries live.
type ShardLoad struct {
	Reads int64
}

// ShardLoads appends per-shard serving-load counters to dst (pass nil to
// allocate), cumulative since construction or the last ResetHealth — the
// per-shard load split the serving metrics expose.
func (r *Router) ShardLoads(dst []ShardLoad) []ShardLoad {
	for s := range r.shards {
		dst = append(dst, ShardLoad{Reads: r.loads[s].Load()})
	}
	return dst
}

// Store returns shard i's physical chunk store (primary chunks followed
// by any replica chunks placed on it).
func (r *Router) Store(i int) chunkfile.Store { return r.shards[i].store }

// Replication returns the layout's replication factor R.
func (r *Router) Replication() int { return r.placement.R }

// Chunks returns the total logical chunk count across shards: replicas
// are copies, not extra chunks.
func (r *Router) Chunks() int { return len(r.metas) }

// Descriptors returns the number of distinct descriptors reachable
// through the router (each counted once, however many replicas hold it).
func (r *Router) Descriptors() int {
	n := 0
	for _, m := range r.metas {
		n += m.Count
	}
	return n
}

// Dims implements chunkfile.Store.
func (r *Router) Dims() int { return r.dims }

// Meta implements chunkfile.Store: the fleet's chunk index, the shards'
// logical chunks shard-major. Callers must not modify it.
func (r *Router) Meta() []chunkfile.Meta { return r.metas }

// Centroids implements chunkfile.Store: one matrix for the fleet's rank,
// the only copy the router makes of the shards' centroids.
func (r *Router) Centroids() []float32 { return r.centroids }

// Layout implements chunkfile.MachineLayout: one simulated machine per
// shard, every chunk billed to its owning shard's — which is all it takes
// for the walk to run the cost model over the fleet.
func (r *Router) Layout() (owner []int32, machines int) { return r.owner, len(r.shards) }

// ReadChunk implements chunkfile.Store through the replicated read path
// (readChunk): chunk i is served from its first live copy. It reports
// chunkfile.ErrUnavailable (wrapped in ErrAllReplicasDown) when no copy
// can serve the chunk, and wraps any other failure in a ShardError naming
// the owning shard. The failed attempts and their backoff are reported in
// data.FailedReads and data.Stall per the chunkfile.Data contract.
func (r *Router) ReadChunk(i int, data *chunkfile.Data) error {
	if i < 0 || i >= len(r.metas) {
		return chunkfile.ErrChunkOOB
	}
	err := r.readChunk(int(r.owner[i]), int(r.local[i]), data)
	if err != nil && !errors.Is(err, chunkfile.ErrUnavailable) {
		return &ShardError{Shard: int(r.owner[i]), Err: err}
	}
	return err
}

// MarkShardDown takes shard s out of rotation, as the router's own read
// path does when the shard's store fails permanently: no read is routed
// to it until ResetHealth. Marking is sticky and idempotent.
func (r *Router) MarkShardDown(s int) {
	if !r.down[s].Swap(true) {
		r.downCount.Add(1)
	}
}

// ShardDown reports whether shard s is currently held down.
func (r *Router) ShardDown(s int) bool { return r.down[s].Load() }

// DownShards returns the number of shards currently held down.
func (r *Router) DownShards() int { return int(r.downCount.Load()) }

// MarkShardUp returns shard s to rotation after MarkShardDown (or after
// the read path held it down), without touching the other shards' health
// or the load counters. The recovery half of the health switch: a prober
// that saw shard s answer again calls this to resume routing to it.
// Un-marking is idempotent; if the shard's store is still failing, the
// next read marks it down again.
func (r *Router) MarkShardUp(s int) {
	if r.down[s].Swap(false) {
		r.downCount.Add(-1)
		// The disk behind the shard may have been replaced while it was
		// down: drop its cached rows so recovery never serves stale data.
		if c := r.shards[s].cached; c != nil {
			c.Invalidate()
		}
	}
}

// ProbeShard checks whether shard s's physical store can serve reads
// right now: it reads the shard's first physical chunk directly (no
// failover, no retry, no simulated billing — probing is control-plane
// traffic) and returns the store's error, nil on success or when the
// shard holds no chunks. Probing never changes health state; callers
// combine it with MarkShardUp / MarkShardDown. A background prober uses
// it to detect both recovery of a down shard and silent death of an idle
// one.
func (r *Router) ProbeShard(s int) error {
	if s < 0 || s >= len(r.shards) {
		return fmt.Errorf("shard: probe shard %d outside [0,%d)", s, len(r.shards))
	}
	st := r.shards[s].store
	if len(st.Meta()) == 0 {
		return nil
	}
	var data chunkfile.Data
	if err := st.ReadChunk(0, &data); err != nil {
		return fmt.Errorf("shard: probe shard %d: %w", s, err)
	}
	return nil
}

// ResetHealth returns every shard to rotation and zeroes the served-read
// counters — the "operator replaced the disk" switch, and the way
// tests reuse one router across fault scenarios.
func (r *Router) ResetHealth() {
	for s := range r.down {
		if r.down[s].Swap(false) {
			r.downCount.Add(-1)
		}
		r.loads[s].Store(0)
		if c := r.shards[s].cached; c != nil {
			c.Invalidate()
		}
	}
}

// CacheStats returns the shared decoded-chunk cache's counters: hits and
// misses over every shard's reads, occupancy and budget. Enabled is false
// — and every counter zero — when the router was built without a cache.
func (r *Router) CacheStats() chunkcache.Stats {
	if r.cache == nil {
		return chunkcache.Stats{}
	}
	return r.cache.Stats()
}

// Retry policy of the replicated read path: on a transient error
// (Temporary() == true, the net.Error convention) the same placement is
// retried up to readAttempts times, each failed attempt billed at the
// chunk's simulated read cost plus an exponentially growing backoff; a
// permanent error marks the placement's shard down and fails over
// immediately.
const readAttempts = 3

const backoffBase = 2 * time.Millisecond

// isTemporary classifies an error as transient (retry may succeed) via
// the Temporary() convention.
func isTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// readChunk serves logical chunk i of shard s from its first live copy:
// the primary (shard s itself, physical chunk i), then the placement's
// replicas in placement order. A shard held down is skipped without an
// attempt; every other copy gets the retry policy before the next is
// tried. So a healthy replicated index reads only primaries, and a
// replica serves a chunk only when its primary's shard is down or keeps
// failing.
//
// Every failed attempt — retries and failed copies — is counted into
// data.FailedReads and the retry backoff into data.Stall; the consumer
// prices the attempts at the chunk's read time under its run's cost model
// (a copy's bytes equal its primary's) and bills both to the pipeline of
// the *owning* shard s: in the cost model shard s's machine is the one
// serving (and retrying) its own chunks, wherever the bytes were finally
// read. When no copy can serve the chunk the error wraps
// ErrAllReplicasDown (and so chunkfile.ErrUnavailable), with the data
// still reporting the attempts made.
func (r *Router) readChunk(s, i int, data *chunkfile.Data) error {
	replicas := r.placement.Replicas[s][i]
	var failed int
	var backoff time.Duration
	var lastErr error
	for c := -1; c < len(replicas); c++ {
		cs, ci := s, i
		if c >= 0 {
			cs, ci = int(replicas[c].Shard), int(replicas[c].Chunk)
		}
		if r.down[cs].Load() {
			if lastErr == nil {
				lastErr = ErrShardDown
			}
			continue
		}
		if lastErr = r.attemptRead(cs, ci, data, &failed, &backoff); lastErr == nil {
			r.loads[cs].Add(1)
			data.FailedReads, data.Stall = failed, backoff
			return nil
		}
	}
	data.FailedReads, data.Stall = failed, backoff
	return allReplicasDown(s, i, lastErr)
}

// allReplicasDown is readChunk's failure: logical chunk i of shard s has
// no placement left to try, lastErr (possibly nil) being the last
// attempt's error. Kept out of readChunk so the formatting does not widen
// the read path's stack frame.
func allReplicasDown(s, i int, lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("shard: shard %d chunk %d: %w: %w", s, i, ErrAllReplicasDown, lastErr)
	}
	return fmt.Errorf("shard: shard %d chunk %d: %w", s, i, ErrAllReplicasDown)
}

// attemptRead reads physical chunk ci of shard cs under the retry
// policy, counting its failed attempts into failed and their backoff
// into backoff. A permanent failure marks the shard down; exhausted transient retries
// leave the shard up (the next read will try it afresh) and make the
// caller fail over. The read goes through the shard's read store — the
// decoded-chunk cache when one is configured — so a cached chunk is
// served without consulting the physical store at all.
func (r *Router) attemptRead(cs, ci int, data *chunkfile.Data, failed *int, backoff *time.Duration) error {
	st := r.shards[cs].read
	var err error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err = st.ReadChunk(ci, data); err == nil {
			return nil
		}
		*failed++
		if !isTemporary(err) {
			r.MarkShardDown(cs)
			return err
		}
		if attempt+1 < readAttempts {
			*backoff += backoffBase << attempt
		}
	}
	return err
}

// Close implements chunkfile.Store: it closes every shard's store
// (through its cache wrapper when one is configured, dropping the cached
// rows).
func (r *Router) Close() error {
	var errs []error
	for i := range r.shards {
		if err := r.shards[i].read.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
