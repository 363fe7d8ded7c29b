package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chunkcache"
	"repro/internal/chunkfile"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/simdisk"
	"repro/internal/vec"
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

// Router serves queries over a set of shards as one walk per query (see
// the package documentation). It is safe for concurrent use.
type Router struct {
	shards    []routedShard
	dims      int
	model     *simdisk.Model // resolved default model; prices read stalls
	placement *Placement
	// Health state: down[s] is sticky-true once shard s's store failed
	// permanently, loads[s] counts the chunk reads shard s has served
	// (the failover path's least-loaded replica choice), downCount is the
	// number of down shards.
	down      []atomic.Bool
	loads     []atomic.Int64
	downCount atomic.Int32
	// gstore is the fleet as one virtual store (it reports the chunk→shard
	// machine layout), engine the one engine over it.
	gstore *globalStore
	engine *batchexec.Engine
	cache  *chunkcache.Cache // shared by every shard's read store; nil when off
}

// RouterOptions bundles the optional knobs of a router.
type RouterOptions struct {
	// CacheBytes, when positive, fronts every shard's physical store with
	// one shared decoded-chunk cache of that many bytes (see
	// internal/chunkcache): the budget is global, hot shards win it. It
	// serves the replicated read path only; probes and direct Store(i)
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
// whose shard dies has no replica and queries over it degrade. A nil
// model selects the calibrated 2005 model for every shard's machine.
func NewRouter(stores []chunkfile.Store, placement *Placement, model *simdisk.Model, opts RouterOptions) (*Router, error) {
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
	if model == nil {
		model = simdisk.Default2005()
	}
	dims := stores[0].Dims()
	r := &Router{dims: dims, model: model, placement: placement}
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
	r.gstore = newGlobalStore(r)
	r.engine = batchexec.New(r.gstore, model)
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
func (r *Router) Chunks() int { return len(r.gstore.metas) }

// Descriptors returns the number of distinct descriptors reachable
// through the router (each counted once, however many replicas hold it).
func (r *Router) Descriptors() int {
	n := 0
	for _, m := range r.gstore.metas {
		n += m.Count
	}
	return n
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

// ResetHealth returns every shard to rotation and zeroes the replica
// load counters — the "operator replaced the disk" switch, and the way
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
// retried up to readAttempts times, each failed attempt charged at the
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

// readChunk serves logical chunk i of shard s from the least-loaded live
// placement by served-read count (loads): the primary first (shard s
// itself, physical chunk i), then the placement's replicas, each attempt
// bounded by the retry policy. Ties prefer the primary, then earlier
// replicas.
//
// The simulated cost of every failed attempt — retries, backoff, and
// failed placements — is accumulated into data.Stall, charged by the
// consumer to the pipeline of the *owning* shard s: in the cost model
// shard s's machine is the one serving (and retrying) its own chunks,
// replica choice being a real-time load-balancing effect. When no
// placement can serve the chunk the error wraps ErrAllReplicasDown (and
// so chunkfile.ErrUnavailable), with data.Stall still reporting the cost
// of the attempts made.
func (r *Router) readChunk(s, i int, data *chunkfile.Data) error {
	data.Stall = 0
	replicas := r.placement.Replicas[s][i]
	nCand := 1 + len(replicas)
	var stall time.Duration
	var tried uint64
	lastErr := error(nil)
	for {
		// Least-loaded untried live candidate; ties prefer the primary,
		// then earlier replicas.
		best, bestLoad := -1, int64(0)
		for c := 0; c < nCand; c++ {
			if tried&(1<<c) != 0 {
				continue
			}
			cs := s
			if c > 0 {
				cs = int(replicas[c-1].Shard)
			}
			if r.down[cs].Load() {
				tried |= 1 << c
				if lastErr == nil {
					lastErr = ErrShardDown
				}
				continue
			}
			if load := r.loads[cs].Load(); best < 0 || load < bestLoad {
				best, bestLoad = c, load
			}
		}
		if best < 0 {
			break
		}
		tried |= 1 << best
		cs, ci := s, i
		if best > 0 {
			cs, ci = int(replicas[best-1].Shard), int(replicas[best-1].Chunk)
		}
		if err := r.attemptRead(cs, ci, data, &stall); err != nil {
			lastErr = err
			continue
		}
		r.loads[cs].Add(1)
		data.Stall = stall
		return nil
	}
	data.Stall = stall
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
// policy, accumulating the simulated cost of failed attempts into stall.
// A permanent failure marks the shard down; exhausted transient retries
// leave the shard up (the next read will try it afresh) and make the
// caller fail over. The read goes through the shard's read store — the
// decoded-chunk cache when one is configured — so a cached chunk is
// served without consulting the physical store at all.
func (r *Router) attemptRead(cs, ci int, data *chunkfile.Data, stall *time.Duration) error {
	st := r.shards[cs].read
	bytes := r.shards[cs].store.Meta()[ci].Bytes
	var err error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err = st.ReadChunk(ci, data); err == nil {
			return nil
		}
		*stall += r.model.ReadTime(bytes)
		if !isTemporary(err) {
			r.MarkShardDown(cs)
			return err
		}
		if attempt+1 < readAttempts {
			*stall += backoffBase << attempt
		}
	}
	return err
}

// Close closes every shard's store (through its cache wrapper when one
// is configured, dropping the cached rows).
func (r *Router) Close() error {
	var errs []error
	for i := range r.shards {
		if err := r.shards[i].read.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// RunBatch executes a workload over the fleet — a point query is a
// workload of one, run on the calling goroutine: each query is one walk
// over the shards' merged centroid-rank order into one k-NN heap, every
// chunk billed to its owning shard's simulated machine, the budget spent
// per shard or, with opts.GlobalBudget, once across the fleet (see the
// package documentation). results[qi] reports ChunksRead and
// ChunksSkipped summed over the shards, Elapsed and IndexRead the max
// over their machines, and PerMachine one entry per shard. The results
// array is caller-owned; its neighbor slices are reused when they have
// capacity. On error no results are valid. RunBatch is RunBatchStream
// without a completion stream.
func (r *Router) RunBatch(queries []vec.Vector, opts batchexec.Options, results []search.Result) error {
	return r.engine.Run(queries, opts, results)
}

// RunBatchStream executes the batch like RunBatch and additionally
// streams per-query completions: done(qi), when non-nil, fires exactly
// once per query the moment its walk retires, with results[qi] fully
// written — long before the batch returns while other queries still
// run. The callback contract is the batch engine's RunStream: callbacks
// for distinct queries may fire concurrently and must not block. When the
// run fails, queries whose callback already fired retain valid results,
// all others are invalid.
func (r *Router) RunBatchStream(queries []vec.Vector, opts batchexec.Options, results []search.Result, done func(query int)) error {
	return r.engine.RunStream(queries, opts, results, done)
}
