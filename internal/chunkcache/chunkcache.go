// Package chunkcache is a byte-bounded cache of *decoded* chunks — the
// []float32 rows plus descriptor IDs a chunkfile.Store's ReadChunk
// produces — fronting any Store as a CachingStore that itself satisfies
// the Store interface. On skewed workloads (the Zipf traffic of
// Tavenard–Amsaleg–Jégou) most reads touch the same hot chunks over and
// over; serving them from the cache skips both the positioned read and
// the byte→float32 decode, while handing the rows out zero-copy.
//
// # Structure
//
// The cache is sharded into fixed lock stripes (16), each an LRU list
// over a map keyed by (store, chunk), with the byte budget split evenly
// across stripes. A hit moves the entry to the stripe's LRU front, pins
// it, and aliases its rows into the caller's Data; a miss reads through
// the inner store into the caller's Data and then copies the decoded
// rows into a cache entry, evicting from the stripe's LRU tail until the
// insert fits.
//
// # Zero-copy discipline (refcount + immutable entries)
//
// Entries are immutable once published. A hit increments the entry's
// refcount and installs the entry as the Data's chunkfile.Pin; the next
// ReadChunk into that Data (or Data.Release) unpins it. Eviction removes
// the entry from the map and subtracts its bytes immediately, but the
// entry's buffers go to the stripe's freelist for reuse only once the
// refcount reaches zero — so eviction never frees rows a scan still
// holds, which is what makes the handout safe under the documented
// concurrent-ReadChunk contract. A pin leaked by a parked Data merely
// keeps that one entry's buffers from being recycled; the garbage
// collector guarantees there is no use-after-free either way.
//
// The cache is a wall-clock optimization only: simulated timings are
// charged by the search layers from chunk metadata, never by stores, so
// results and simulated costs are byte-identical cache-on vs cache-off
// (the facade's equivalence tests pin this).
package chunkcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/chunkfile"
	"repro/internal/descriptor"
)

// stripeCount is the number of lock stripes; a power of two so the key
// hash folds with a mask.
const stripeCount = 16

// entryOverhead is the per-entry bookkeeping charge against the byte
// budget beyond the rows themselves: the entry struct, map slot, and
// slice headers, rounded generously so many tiny chunks cannot blow the
// real footprint past the configured bound.
const entryOverhead = 128

// entry is one cached decoded chunk. Immutable once published: ids,
// vecs, dims and bytes never change after insert; refs, evicted and
// freed manage the zero-copy handout (see the package comment).
type entry struct {
	key  uint64
	ids  []descriptor.ID
	vecs []float32
	dims int

	bytes int64 // budget charge: cap(ids)·4 + cap(vecs)·4 + entryOverhead

	// refs counts live handouts. Pinning happens under the stripe lock
	// (only reachable entries are pinned); unpinning is lock-free until
	// the count hits zero on an evicted entry, which takes the stripe
	// lock to move the buffers to the freelist.
	refs atomic.Int32
	// evicted and freed are guarded by the stripe lock: evicted marks the
	// entry as removed from the map (bytes already subtracted), freed
	// that its buffers were handed to the freelist.
	evicted bool
	freed   bool

	s          *stripe
	prev, next *entry // LRU list links; nil when evicted
	free       *entry // freelist link
}

// Unpin implements chunkfile.Pin: it releases one handout, and recycles
// the entry's buffers once it is both evicted and unreferenced.
func (e *entry) Unpin() {
	if e.refs.Add(-1) == 0 {
		e.s.maybeRecycle(e)
	}
}

// maxFree bounds each stripe's freelist: recycled buffers beyond it are
// left to the garbage collector, so the freelist cannot hoard memory
// outside the byte budget.
const maxFree = 8

// stripe is one lock shard of the cache: a map over the stripe's
// entries, the LRU list (head = most recently used), the stripe's share
// of the byte budget, and a short freelist of evicted-and-unpinned
// entries whose buffers are reused by later inserts.
type stripe struct {
	mu        sync.Mutex
	entries   map[uint64]*entry
	head      *entry
	tail      *entry
	bytes     int64
	maxBytes  int64
	freelist  *entry
	freeCount int
}

// recycleLocked pushes e's buffers onto the freelist (or abandons them
// to the GC when the freelist is full). Caller holds the stripe lock;
// the freed flag makes recycling happen at most once.
func (s *stripe) recycleLocked(e *entry) {
	e.freed = true
	if s.freeCount >= maxFree {
		return
	}
	e.free = s.freelist
	s.freelist = e
	s.freeCount++
}

// maybeRecycle moves an evicted, unreferenced entry's buffers to the
// freelist. Racing callers are serialized by the stripe lock.
func (s *stripe) maybeRecycle(e *entry) {
	s.mu.Lock()
	if e.evicted && !e.freed && e.refs.Load() == 0 {
		s.recycleLocked(e)
	}
	s.mu.Unlock()
}

// unlink removes e from the LRU list.
func (s *stripe) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (s *stripe) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// Cache is a byte-bounded, lock-striped LRU cache of decoded chunks.
// One Cache may front many stores (NewStore assigns each CachingStore a
// distinct key namespace), which is how a shard router shares one global
// byte budget across the fleet; give each store its own Cache for a
// per-shard budget instead. Safe for concurrent use.
type Cache struct {
	stripes   [stripeCount]stripe
	maxBytes  int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	nextID    atomic.Uint32
}

// New returns a cache bounded to roughly maxBytes of decoded rows
// (entry bookkeeping included in the accounting). The budget is split
// evenly across the lock stripes, each at least one page worth, so a
// tiny budget still caches something per stripe. maxBytes must be
// positive; callers gate "cache disabled" by not constructing one.
func New(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	c := &Cache{maxBytes: maxBytes}
	per := maxBytes / stripeCount
	if per < 1 {
		per = 1
	}
	for i := range c.stripes {
		c.stripes[i] = stripe{entries: map[uint64]*entry{}, maxBytes: per}
	}
	return c
}

// stripeFor folds the key onto a stripe. The store id occupies the high
// 32 bits and the chunk index the low 32; mixing both halves spreads
// one store's chunks and many stores' same-index chunks alike.
func (c *Cache) stripeFor(key uint64) *stripe {
	h := key * 0x9e3779b97f4a7c15
	return &c.stripes[(h>>32)&(stripeCount-1)]
}

// get returns the entry under key pinned (refcount raised) and promoted
// to its stripe's LRU front, or nil on a miss. The caller owns one
// Unpin.
func (c *Cache) get(key uint64) *entry {
	s := c.stripeFor(key)
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	e.refs.Add(1)
	s.unlink(e)
	s.pushFront(e)
	s.mu.Unlock()
	c.hits.Add(1)
	return e
}

// insert publishes a copy of the decoded rows under key, evicting from
// the stripe's LRU tail until the entry fits. If a racing insert
// published the key first, the copy is discarded (first insert wins);
// entries larger than the stripe's whole budget are not cached — either
// way the caller keeps serving its own decode.
func (c *Cache) insert(key uint64, ids []descriptor.ID, vecs []float32, dims int) {
	s := c.stripeFor(key)

	// Reuse an evicted entry's buffers when one is free; fill outside the
	// lock so a large copy never blocks the stripe.
	s.mu.Lock()
	e := s.freelist
	if e != nil {
		s.freelist = e.free
		s.freeCount--
		e.free = nil
		e.freed = false
		e.evicted = false
	}
	s.mu.Unlock()
	if e == nil {
		e = &entry{s: s}
	}
	if cap(e.ids) < len(ids) {
		e.ids = make([]descriptor.ID, len(ids))
	}
	e.ids = e.ids[:len(ids)]
	copy(e.ids, ids)
	if cap(e.vecs) < len(vecs) {
		e.vecs = make([]float32, len(vecs))
	}
	e.vecs = e.vecs[:len(vecs)]
	copy(e.vecs, vecs)
	e.key = key
	e.dims = dims
	e.bytes = int64(cap(e.ids))*4 + int64(cap(e.vecs))*4 + entryOverhead
	e.refs.Store(0)

	s.mu.Lock()
	switch {
	case s.entries[key] != nil:
		// Lost the insert race: the published copy is identical, keep it.
		s.recycleLocked(e)
	case e.bytes > s.maxBytes:
		// Larger than the stripe's whole budget: caching it would evict
		// everything for one entry that can never be afforded. Dropped
		// without freelisting so the oversized buffers don't linger.
		e.freed = true
	default:
		for s.bytes+e.bytes > s.maxBytes && s.tail != nil {
			c.evictLocked(s, s.tail)
		}
		s.entries[key] = e
		s.pushFront(e)
		s.bytes += e.bytes
	}
	s.mu.Unlock()
}

// evictLocked removes e from the stripe's map and LRU list and subtracts
// its bytes; the buffers go to the freelist now if unpinned, else when
// the last Unpin lands. Caller holds the stripe lock.
func (c *Cache) evictLocked(s *stripe, e *entry) {
	delete(s.entries, e.key)
	s.unlink(e)
	s.bytes -= e.bytes
	e.evicted = true
	c.evictions.Add(1)
	if e.refs.Load() == 0 && !e.freed {
		s.recycleLocked(e)
	}
}

// invalidateStore drops every entry of the given store id from the
// cache, honoring the refcount discipline (pinned rows stay intact until
// unpinned). The recovery hook: after a dead store is revived — possibly
// with different bytes on the replaced disk — its cached rows must not
// be served again.
func (c *Cache) invalidateStore(id uint32) {
	prefix := uint64(id) << 32
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for key, e := range s.entries {
			if key&^uint64(0xffffffff) == prefix {
				c.evictLocked(s, e)
			}
		}
		s.mu.Unlock()
	}
}

// Stats is a point-in-time snapshot of cache effectiveness and
// occupancy. CachingStore.Stats scopes Hits/Misses to one store;
// Cache.Stats aggregates them over every store sharing the cache.
type Stats struct {
	// Enabled distinguishes a zero Stats from "no cache configured" at
	// surfaces where the cache is optional (facade, /metrics).
	Enabled bool
	// Hits and Misses count ReadChunk lookups.
	Hits   int64
	Misses int64
	// Evictions counts entries pushed out by the byte budget (including
	// invalidations).
	Evictions int64
	// Bytes and MaxBytes are current occupancy and the configured bound;
	// Entries is the live entry count.
	Bytes    int64
	MaxBytes int64
	Entries  int
}

// Stats returns the cache-wide counters and occupancy.
func (c *Cache) Stats() Stats {
	st := Stats{
		Enabled:   true,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		MaxBytes:  c.maxBytes,
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// CachingStore fronts an inner chunkfile.Store with a Cache. It
// satisfies the Store interface and contract: concurrent ReadChunk with
// distinct Data values is safe, and handed-out rows follow the
// documented ownership rule (valid until the next ReadChunk into the
// same Data, pinned so eviction never frees them early). Hits alias
// cached rows zero-copy and never consult the inner store — a faulty
// inner store (faultstore) is not even probed on a hit; misses read
// through, populate the cache, and report the inner store's rows and
// failed attempts unchanged, so simulated billing is identical with and
// without the cache.
type CachingStore struct {
	inner  chunkfile.Store
	cache  *Cache
	id     uint32
	hits   atomic.Int64
	misses atomic.Int64
}

var _ chunkfile.Store = (*CachingStore)(nil)

// NewStore fronts inner with cache. Each CachingStore gets a distinct
// key namespace within the cache, so one Cache can serve many stores
// under one shared byte budget.
func NewStore(inner chunkfile.Store, cache *Cache) *CachingStore {
	return &CachingStore{inner: inner, cache: cache, id: cache.nextID.Add(1)}
}

// key builds the cache key of chunk i: store id high, chunk index low.
func (s *CachingStore) key(i int) uint64 { return uint64(s.id)<<32 | uint64(uint32(i)) }

// Dims implements chunkfile.Store.
func (s *CachingStore) Dims() int { return s.inner.Dims() }

// Meta implements chunkfile.Store: chunk metadata is served by the inner
// store (it is in-memory there, not a disk read).
func (s *CachingStore) Meta() []chunkfile.Meta { return s.inner.Meta() }

// Centroids implements chunkfile.Store: the inner store's matrix.
func (s *CachingStore) Centroids() []float32 { return s.inner.Centroids() }

// ReadChunk implements chunkfile.Store. A hit aliases the cached rows
// into data zero-copy (pinning them until the next read into data) with
// FailedReads and Stall zero — the hit performed no attempts to bill. A
// miss delegates to the inner store and, on success, copies the decoded
// rows into the cache for future hits; data keeps the inner read's rows,
// FailedReads and Stall.
func (s *CachingStore) ReadChunk(i int, data *chunkfile.Data) error {
	if i < 0 || i >= len(s.inner.Meta()) {
		return chunkfile.ErrChunkOOB
	}
	key := s.key(i)
	if e := s.cache.get(key); e != nil {
		s.hits.Add(1)
		data.Alias(e.ids, e.vecs, e.dims, e)
		data.FailedReads, data.Stall = 0, 0
		return nil
	}
	s.misses.Add(1)
	if err := s.inner.ReadChunk(i, data); err != nil {
		return err
	}
	s.cache.insert(key, data.IDs, data.Vecs, s.inner.Dims())
	return nil
}

// Invalidate drops this store's entries from the cache (pinned rows stay
// intact until their scans unpin them). Call after the inner store's
// contents may have changed — a revived shard whose disk was replaced.
func (s *CachingStore) Invalidate() { s.cache.invalidateStore(s.id) }

// Stats returns this store's own hit/miss counters combined with the
// shared cache's occupancy and eviction counts.
func (s *CachingStore) Stats() Stats {
	st := s.cache.Stats()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	return st
}

// Close invalidates this store's entries and closes the inner store.
func (s *CachingStore) Close() error {
	s.Invalidate()
	return s.inner.Close()
}
