package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunkcache"
	"repro/internal/chunkfile"
	"repro/internal/knn"
	"repro/internal/multiquery"
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

// ShardError reports which shard of a scatter failed. When several shards
// fail in one scatter, the lowest shard index is reported.
type ShardError struct {
	Shard int
	Err   error
}

// Error implements the error interface.
func (e *ShardError) Error() string { return fmt.Sprintf("shard: shard %d: %v", e.Shard, e.Err) }

// Unwrap returns the underlying error.
func (e *ShardError) Unwrap() error { return e.Err }

// routedShard is one shard's serving stack: the physical store, the
// data-plane store reads actually go through (the physical store behind a
// decoded-chunk cache when one is configured), the logical view the
// queries run over (the primary prefix of the physical store, with every
// read routed through the router's replicated read path), and the engine
// over that view.
type routedShard struct {
	store chunkfile.Store
	// read is the store attemptRead serves from: cached wraps store when
	// a cache is configured, else read == store. Control-plane reads
	// (ProbeShard) always go to the raw store, so probing observes the
	// disk, not the cache.
	read   chunkfile.Store
	cached *chunkcache.CachingStore // non-nil iff caching is on; == read then
	view   *shardView
	engine *batchexec.Engine
}

// shardView presents shard s's logical chunk index — its primary chunks
// only — as a chunkfile.Store whose ReadChunk goes through the router's
// replicated, health-aware read path. Engines run over the view, so
// replica chunks (the physical suffix) are never ranked or scanned
// directly and merged neighbor lists stay duplicate-free; the replicas
// only serve failovers.
type shardView struct {
	r         *Router
	shard     int
	metas     []chunkfile.Meta // primary prefix of the physical store's metas
	centroids []float32        // the same prefix of its centroid matrix
}

var _ chunkfile.Store = (*shardView)(nil)

// Dims implements chunkfile.Store.
func (v *shardView) Dims() int { return v.r.dims }

// Meta implements chunkfile.Store: the shard's logical chunk index.
// Callers must not modify it.
func (v *shardView) Meta() []chunkfile.Meta { return v.metas }

// Centroids implements chunkfile.Store: the primary rows of the physical
// store's matrix (primaries precede replicas, so they are a prefix).
func (v *shardView) Centroids() []float32 { return v.centroids }

// ReadChunk implements chunkfile.Store via the router's replicated read
// path: retry on transient errors, fail over to the least-loaded live
// replica, report chunkfile.ErrUnavailable (wrapped in
// ErrAllReplicasDown) when no placement can serve the chunk. The
// simulated cost of failed attempts is returned in data.Stall per the
// chunkfile.Data contract.
func (v *shardView) ReadChunk(i int, data *chunkfile.Data) error {
	return v.r.readChunk(v.shard, i, data)
}

// Close implements chunkfile.Store as a no-op: the Router owns the
// physical stores and closes them in Router.Close.
func (v *shardView) Close() error { return nil }

// Machines implements chunkfile.MachineRouter: with the router's
// spread-reads policy on, a read through this view may be served by any
// machine of the fleet, and the view's own shard is the owner every
// stall bills to. With spread off it reports a single machine, which
// disables per-machine accounting and keeps the spread-off search paths
// byte-identical to the pre-spread router.
func (v *shardView) Machines() (count, owner int) {
	if v.r.spread.Load() {
		return len(v.r.shards), v.shard
	}
	return 1, v.shard
}

// Router serves queries scatter-gather across a set of shards. It is safe
// for concurrent use.
//
// Two budget disciplines are offered, with the same per-shard cost model
// (one simulated 2005 machine per shard) underneath:
//
//   - Per-shard (RunBatch, RunBatchStream, MultiQuery): every shard runs
//     the paper's algorithm independently, so the stop rule's budget is
//     spent once per shard — S shards at ChunkBudget(b) read up to S×b
//     chunks.
//   - Global (RunBatchGlobal, RunBatchGlobalStream, MultiQueryGlobal):
//     the shards' ranked chunk lists merge into one global centroid-rank
//     order, and the stop rule spends a single total budget across the
//     fleet — ChunkBudget(B) reads exactly min(B, total) chunks. See
//     global.go and DESIGN.md §7.
//
// A point query is a batch of one under either discipline.
type Router struct {
	shards    []routedShard
	dims      int
	model     *simdisk.Model // resolved default model for the global paths
	placement *Placement
	// Health state: down[s] is sticky-true once shard s's store failed
	// permanently, loads[s] counts the chunk reads shard s has served
	// (the failover path's least-loaded replica choice), downCount is the
	// number of down shards.
	down      []atomic.Bool
	loads     []atomic.Int64
	downCount atomic.Int32
	// Spread-reads policy state (SetSpreadReads): when on, readChunk
	// picks among all live copies by billed simulated load instead of
	// defaulting to the primary, and the search layers keep per-machine
	// serving ledgers the merges fold into Simulated. billed[s] is the
	// estimator: the simulated nanoseconds of the reads shard s is
	// serving or has served (charged before the read — so an in-flight
	// read already repels the next routing choice — and rolled back if
	// the read fails over).
	spread atomic.Bool
	billed []atomic.Int64
	// gstore is the virtual concatenated store the global-budget mode
	// ranks and reads through (it reports the chunk→shard machine layout),
	// and gengine the engine over it.
	gstore  *globalStore
	gengine *batchexec.Engine
	// caches holds the distinct decoded-chunk caches behind the shards'
	// read stores: one shared cache in the global discipline, one per
	// shard in the per-shard discipline, empty when caching is off.
	caches  []*chunkcache.Cache
	scratch sync.Pool // *scatter
	mq      sync.Pool // *[]search.Result: multi-descriptor result arena
}

// CacheConfig configures the router's decoded-chunk cache (see
// internal/chunkcache). The zero value disables caching; a disabled
// cache changes nothing — results, simulated times, and counters are
// byte-identical with or without it.
type CacheConfig struct {
	// Bytes is the cache budget in bytes of decoded rows. In the shared
	// discipline (PerShard false) one cache of Bytes fronts every shard's
	// store — the budget is global, hot shards win it. Zero disables
	// caching.
	Bytes int64
	// PerShard gives every shard its own independent cache of Bytes
	// instead — the discipline matching the cost model's one-machine-per-
	// shard story, where each machine's RAM is its own.
	PerShard bool
}

// scatter is the pooled per-call state of one scatter-gather: the
// per-shard result arenas, the per-shard merge cursors, and the error
// slots (one per shard, so concurrent shard goroutines never contend).
type scatter struct {
	batch [][]search.Result // one arena per shard
	rows  []*search.Result  // merge view: one shard's result for one query
	cur   []int             // merge cursors, one per shard
	times []time.Duration   // folded spread-reads clocks, one per shard
	errs  []error
	wg    sync.WaitGroup // joins the shard goroutines; pooled so a scatter allocates nothing

	// The batch in flight (RunBatchStream). run[s] runs shard s's engine
	// over it, and shardDone is retired: both are bound once per scatter,
	// so launching the shards allocates nothing. remaining[qi] counts the
	// shards that have not yet retired query qi; the shard callback that
	// brings it to zero owns the merge and the user-visible completion.
	// mergeMu serializes merges only — they share the merge scratch above —
	// never the shards' scan work.
	run       []func()
	queries   []vec.Vector
	opts      batchexec.Options
	remaining []atomic.Int32
	mergeMu   sync.Mutex
	shardDone func(query int)
	results   []search.Result
	done      func(query int)
	k         int
	spread    bool
	start     time.Time
}

// newScatter returns a scatter sized for the router's shards, its shard
// launchers bound.
func (r *Router) newScatter() *scatter {
	n := len(r.shards)
	sc := &scatter{batch: make([][]search.Result, n), errs: make([]error, n), run: make([]func(), n)}
	sc.shardDone = sc.retired
	for s := range sc.run {
		eng := r.shards[s].engine
		sc.run[s] = func() {
			sc.errs[s] = eng.RunStream(sc.queries, sc.opts, sc.batch[s], sc.shardDone)
			sc.wg.Done()
		}
	}
	return sc
}

// RouterOptions bundles the optional knobs of a router.
type RouterOptions struct {
	// Cache configures the decoded-chunk cache (see CacheConfig) in front
	// of the shards' physical stores. It serves the replicated read path
	// only; probes and direct Store(i) access always observe the disk.
	Cache CacheConfig
	// SpreadReads starts the router with the spread-reads routing policy
	// on (see Router.SetSpreadReads).
	SpreadReads bool
}

// NewRouter builds a Router over one physical store per shard and the
// placement describing each store's primary prefix and the replica
// locations of every logical chunk (see PartitionReplicated). Queries run
// over the logical views; replicas serve failovers. A nil placement means
// unreplicated: every store's chunks are all primary (R=1), so a chunk
// whose shard dies has no replica and queries over it degrade. A nil
// model selects the calibrated 2005 model for every shard's machine.
func NewRouter(stores []chunkfile.Store, placement *Placement, model *simdisk.Model, opts RouterOptions) (*Router, error) {
	cache := opts.Cache
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
	r.billed = make([]atomic.Int64, len(stores))
	r.spread.Store(opts.SpreadReads)
	for i, st := range stores {
		if st.Dims() != dims {
			return nil, fmt.Errorf("shard: shard %d dims %d != shard 0 dims %d", i, st.Dims(), dims)
		}
		r.shards = append(r.shards, routedShard{store: st, read: st})
	}
	if cache.Bytes > 0 {
		var shared *chunkcache.Cache
		if !cache.PerShard {
			shared = chunkcache.New(cache.Bytes)
			r.caches = append(r.caches, shared)
		}
		for i := range r.shards {
			c := shared
			if cache.PerShard {
				c = chunkcache.New(cache.Bytes)
				r.caches = append(r.caches, c)
			}
			r.shards[i].cached = chunkcache.NewStore(r.shards[i].store, c)
			r.shards[i].read = r.shards[i].cached
		}
	}
	for i := range r.shards {
		sh := &r.shards[i]
		np := placement.NumPrimary[i]
		sh.view = &shardView{r: r, shard: i, metas: sh.store.Meta()[:np], centroids: sh.store.Centroids()[:np*dims]}
		sh.engine = batchexec.New(sh.view, model)
	}
	r.gstore = newGlobalStore(r, r.shards, dims)
	r.gengine = batchexec.New(r.gstore, model)
	r.scratch.New = func() any { return r.newScatter() }
	r.mq.New = func() any {
		s := []search.Result(nil)
		return &s
	}
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

// SetSpreadReads toggles the spread-reads routing policy. With it on,
// readChunk serves every read from the live copy (primary or replica)
// with the least billed simulated load instead of preferring the
// primary, so hot chunks with R > 1 stop concentrating on one machine —
// and the search layers keep a per-machine serving ledger whose fold
// replaces the merged Simulated with the real max over the machines'
// serving clocks. Healthy results are byte-identical either way — only
// Simulated and the per-shard load attribution move — and the failover,
// health and cache semantics are unchanged: down shards are never
// candidates, stalls still bill the owning shard, and a revive still
// invalidates the shard's cache. Safe to call concurrently; a query in
// flight during a toggle keeps its answers but may report the nominal
// owner-billed Simulated for that one call.
func (r *Router) SetSpreadReads(on bool) { r.spread.Store(on) }

// SpreadReads reports whether the spread-reads routing policy is on.
func (r *Router) SpreadReads() bool { return r.spread.Load() }

// ShardLoad is one shard's serving-load counters: the chunk reads it has
// actually served (wherever the chunks' primaries live) and the
// simulated serving time the spread-reads billed-load estimator has
// attributed to it — zero while spread reads are off, since the
// estimator only runs for spread routing decisions.
type ShardLoad struct {
	Reads  int64
	Billed time.Duration
}

// ShardLoads appends per-shard serving-load counters to dst (pass nil to
// allocate), cumulative since construction or the last ResetHealth — the
// per-shard load split the spread-reads policy balances and the serving
// metrics expose.
func (r *Router) ShardLoads(dst []ShardLoad) []ShardLoad {
	for s := range r.shards {
		dst = append(dst, ShardLoad{
			Reads:  r.loads[s].Load(),
			Billed: time.Duration(r.billed[s].Load()),
		})
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
func (r *Router) Chunks() int {
	n := 0
	for s := range r.shards {
		n += len(r.shards[s].view.metas)
	}
	return n
}

// Descriptors returns the number of distinct descriptors reachable
// through the router (each counted once, however many replicas hold it).
func (r *Router) Descriptors() int {
	n := 0
	for s := range r.shards {
		for _, m := range r.shards[s].view.metas {
			n += m.Count
		}
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
		r.billed[s].Store(0)
		if c := r.shards[s].cached; c != nil {
			c.Invalidate()
		}
	}
}

// CacheStats aggregates the decoded-chunk cache counters across the
// shards' read stores: hits and misses summed over the shards, occupancy
// and budget summed over the distinct caches behind them (one shared
// cache appears once, not once per shard). Enabled is false — and every
// counter zero — when the router was built without a cache.
func (r *Router) CacheStats() chunkcache.Stats {
	var st chunkcache.Stats
	if len(r.caches) == 0 {
		return st
	}
	st.Enabled = true
	for _, c := range r.caches {
		cs := c.Stats()
		st.Evictions += cs.Evictions
		st.Bytes += cs.Bytes
		st.MaxBytes += cs.MaxBytes
		st.Entries += cs.Entries
	}
	for i := range r.shards {
		ss := r.shards[i].cached.Stats()
		st.Hits += ss.Hits
		st.Misses += ss.Misses
	}
	return st
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
// placement: the primary first (shard s itself, physical chunk i), then
// the placement's replicas, each attempt bounded by the retry policy.
// The load a candidate is judged by depends on the routing policy: with
// spread reads off it is the served-read count (loads), with spread
// reads on it is the billed simulated serving time (billed) — charged
// optimistically *before* the attempt, so concurrent reads see each
// other's in-flight work, and rolled back if the attempt fails. Ties
// prefer the primary, then earlier replicas, under both policies.
//
// The simulated cost of every failed attempt — retries, backoff, and
// failed placements — is accumulated into data.Stall, charged by the
// consumer to the pipeline of the *owning* shard s: in the cost model
// shard s's machine is the one serving (and retrying) its own chunks,
// replica choice being a real-time load-balancing effect. data.Served
// names the shard that served the read (the owner on failure), which the
// spread-reads serving ledgers bill the chunk to. When no placement can
// serve the chunk the error wraps ErrAllReplicasDown (and so
// chunkfile.ErrUnavailable), with data.Stall still reporting the cost of
// the attempts made.
func (r *Router) readChunk(s, i int, data *chunkfile.Data) error {
	data.Stall = 0
	data.Served = int32(s)
	spread := r.spread.Load()
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
			load := r.loads[cs].Load()
			if spread {
				load = r.billed[cs].Load()
			}
			if best < 0 || load < bestLoad {
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
		var cost int64
		if spread {
			m := &r.shards[cs].store.Meta()[ci]
			cost = int64(r.model.ReadTime(m.Bytes) + r.model.CPUTime(m.Count))
			r.billed[cs].Add(cost)
		}
		if err := r.attemptRead(cs, ci, data, &stall); err != nil {
			if spread {
				r.billed[cs].Add(-cost)
			}
			lastErr = err
			continue
		}
		r.loads[cs].Add(1)
		data.Served = int32(cs)
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

// RunBatch executes a workload scatter-gather — a point query is a
// workload of one: every shard's engine runs the full query set
// concurrently with the other shards, each over its own chunks on its own
// simulated machine, and each query's per-shard outcomes are merged into
// results[qi] (neighbors through knn.Less, ChunksRead summed, Elapsed the
// max over the shards' simulated machines, Exact when every shard was
// exact). The results array is caller-owned; its neighbor slices are
// reused when they have capacity. RunBatch is RunBatchStream without a
// completion stream.
func (r *Router) RunBatch(queries []vec.Vector, opts batchexec.Options, results []search.Result) error {
	return r.RunBatchStream(queries, opts, results, nil)
}

// RunBatchStream executes the batch like RunBatch and additionally
// streams per-query completions: done(qi), when non-nil, fires exactly
// once per query, after results[qi] holds its fully merged outcome — a
// query completes the moment its *last* shard retires it, long before
// the batch returns while other queries' shards still work. Callbacks
// for distinct queries may fire concurrently (they run on the shards'
// scan workers), so done must be safe for concurrent use and should not
// block. When a shard fails the batch returns the ShardError; queries
// whose callback already fired retain valid merged results, all others
// are invalid.
func (r *Router) RunBatchStream(queries []vec.Vector, opts batchexec.Options, results []search.Result, done func(query int)) error {
	if len(queries) == 0 {
		return nil
	}
	if len(results) != len(queries) {
		return fmt.Errorf("shard: results length %d != queries length %d", len(results), len(queries))
	}
	for qi, q := range queries {
		if len(q) != r.dims {
			return &batchexec.QueryError{Query: qi, Err: fmt.Errorf("query dims %d != store dims %d", len(q), r.dims)}
		}
	}

	sc := r.scratch.Get().(*scatter)
	defer r.scratch.Put(sc)
	n := len(r.shards)
	for s := range sc.batch {
		sc.batch[s] = grow(sc.batch[s], len(queries))
	}
	clear(sc.errs)
	if cap(sc.remaining) < len(queries) {
		sc.remaining = make([]atomic.Int32, len(queries))
	}
	sc.remaining = sc.remaining[:len(queries)]
	for qi := range sc.remaining {
		sc.remaining[qi].Store(int32(n))
	}
	sc.queries, sc.opts = queries, opts
	sc.results, sc.done, sc.start = results, done, time.Now()
	sc.k, sc.spread = opts.K, r.spread.Load()
	if sc.k <= 0 { // the k a merge keeps: the search layers' default when unset
		sc.k = search.DefaultK
	}
	defer func() { sc.queries, sc.opts, sc.results, sc.done = nil, batchexec.Options{}, nil, nil }()

	// Shard 0 runs on the calling goroutine, every other on its own.
	sc.wg.Add(n)
	for s := 1; s < n; s++ {
		go sc.run[s]()
	}
	sc.run[0]()
	sc.wg.Wait()
	for s, err := range sc.errs {
		if err != nil {
			return &ShardError{Shard: s, Err: err}
		}
	}
	return nil
}

// retired is the shards' engines' completion callback for the batch in
// flight: the last shard to retire query qi merges its rows into the
// caller's result and streams the completion.
func (sc *scatter) retired(qi int) {
	if sc.remaining[qi].Add(-1) != 0 {
		return
	}
	sc.mergeMu.Lock()
	sc.rows = sc.rows[:0]
	for s := range sc.batch {
		sc.rows = append(sc.rows, &sc.batch[s][qi])
	}
	sc.mergeRows(sc.k, sc.spread, &sc.results[qi])
	sc.results[qi].Wall = time.Since(sc.start)
	sc.mergeMu.Unlock()
	if sc.done != nil {
		sc.done(qi)
	}
}

// mergeRows merges one query's per-shard outcomes sc.rows into out, whose
// Neighbors buffer is reused: neighbors through knn.Less, chunks (read
// and skipped) summed, simulated times the max (the shards run in
// parallel), exactness ANDed, degradation ORed. With spread reads on the
// nominal owner-billed Elapsed is replaced by the fold of the serving
// ledgers — what each machine really spent once reads moved to the
// least-loaded copies. Everything else is merged from the nominal walks
// and identical either way.
func (sc *scatter) mergeRows(k int, spread bool, out *search.Result) {
	*out = search.Result{Neighbors: out.Neighbors[:0], Exact: true}
	out.Neighbors, sc.cur = mergeNeighbors(sc.rows, k, out.Neighbors, sc.cur)
	for _, row := range sc.rows {
		out.ChunksRead += row.ChunksRead
		out.ChunksSkipped += row.ChunksSkipped
		out.Elapsed = max(out.Elapsed, row.Elapsed)
		out.IndexRead = max(out.IndexRead, row.IndexRead)
		out.Exact = out.Exact && row.Exact
		out.Degraded = out.Degraded || row.Degraded
	}
	if spread {
		var folded bool
		if sc.times, folded = foldSpread(sc.rows, sc.times); folded {
			out.Elapsed = slices.Max(sc.times)
		}
	}
}

// MultiQuery runs a multi-descriptor (whole-image) query scatter-gather:
// the bag's per-descriptor searches run as one batch across every shard,
// and the merged per-descriptor neighbor lists vote through the shared
// multiquery aggregation, so the outcome matches a single-store
// multi-descriptor query over the union of the shards. The default
// 3-chunk budget — like any stop rule passed in opts — applies per
// descriptor per shard; MultiQueryGlobal spends it per descriptor across
// the whole fleet instead.
func (r *Router) MultiQuery(descriptors []vec.Vector, opts multiquery.Options) (*multiquery.Result, error) {
	return r.multiQueryVia(descriptors, opts, r.RunBatch)
}

// multiQueryVia is the shared multi-descriptor implementation: the bag
// runs as one batch through the given batch executor (per-shard RunBatch
// or global-budget RunBatchGlobal), then the per-descriptor results vote
// through the shared multiquery aggregation.
func (r *Router) multiQueryVia(descriptors []vec.Vector, opts multiquery.Options, run func([]vec.Vector, batchexec.Options, []search.Result) error) (*multiquery.Result, error) {
	if len(descriptors) == 0 {
		return nil, errors.New("shard: no query descriptors")
	}
	if opts.K <= 0 {
		opts.K = 10
	}
	if opts.Stop == nil {
		opts.Stop = search.ChunkBudget(3)
	}
	rp := r.mq.Get().(*[]search.Result)
	defer r.mq.Put(rp)
	*rp = grow(*rp, len(descriptors))
	results := *rp
	err := run(descriptors, batchexec.Options{
		K:       opts.K,
		Stop:    opts.Stop,
		Overlap: opts.Overlap,
		Ctx:     opts.Ctx,
	}, results)
	if err != nil {
		return nil, fmt.Errorf("shard: multiquery: %w", err)
	}
	return multiquery.Aggregate(results, opts), nil
}

// mergeNeighbors merges the per-shard sorted neighbor lists in rows into
// the global top k, appending to dst. Heads are compared through
// knn.Less, the canonical (distance, ascending id) composite order; the
// reported Dist is the true distance, and since sqrt is monotone the
// (Dist, ID) order agrees with the squared-distance order every shard's
// heap sorted by — up to one theoretical caveat: sqrt can collapse two
// adjacent-ulp distinct squared distances onto one float64, in which
// case the cross-shard tie falls to the ID order instead of the d²
// order. Squared distances live on the far coarser grid of summed
// float32 products, so no real workload has exhibited this; the
// completion-vs-oracle equivalence tests would catch one if it did.
// The cursor walk preserves each shard's own order, so a 1-shard merge
// is a plain copy — which is what keeps 1-shard results byte-identical
// to the unsharded path. Shards partition the collection, so IDs are
// unique across rows and the merge is deterministic.
//
// The cur slice is caller-recycled cursor scratch; the (possibly grown)
// buffer is returned alongside dst.
func mergeNeighbors(rows []*search.Result, k int, dst []knn.Neighbor, cur []int) ([]knn.Neighbor, []int) {
	if cap(cur) < len(rows) {
		cur = make([]int, len(rows))
	}
	cur = cur[:len(rows)]
	for s := range cur {
		cur[s] = 0
	}
	for len(dst) < k {
		best := -1
		var bestNb knn.Neighbor
		for s, row := range rows {
			if cur[s] >= len(row.Neighbors) {
				continue
			}
			nb := row.Neighbors[cur[s]]
			if best < 0 || knn.Less(nb.Dist, nb.ID, bestNb.Dist, bestNb.ID) {
				best, bestNb = s, nb
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, bestNb)
		cur[best]++
	}
	return dst, cur
}

// foldSpread folds the shards' spread-reads serving ledgers into real
// per-shard clocks: machine t's clock is its own index read plus every
// serving charge any shard's walk billed to it — times[t] =
// rows[t].IndexRead + Σ_w rows[w].Machines[t]. The merged Simulated is
// then the max over times (the machines run in parallel), replacing the
// nominal owner-billed max. Reports ok=false — keep the nominal times —
// when any row carries no ledger or a ledger of the wrong width, e.g.
// when spread reads were toggled while the scatter was in flight.
func foldSpread(rows []*search.Result, times []time.Duration) ([]time.Duration, bool) {
	n := len(rows)
	if cap(times) < n {
		times = make([]time.Duration, n)
	}
	times = times[:n]
	for t := range times {
		times[t] = rows[t].IndexRead
	}
	for _, row := range rows {
		if len(row.Machines) != n {
			return times, false
		}
		for t, d := range row.Machines {
			times[t] += d
		}
	}
	return times, true
}

// grow returns s with length n, reusing its capacity (and the neighbor
// slices inside retained elements) when possible.
func grow(s []search.Result, n int) []search.Result {
	if cap(s) < n {
		grown := make([]search.Result, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}
