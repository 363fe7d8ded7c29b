// Package chunkcache is a byte-bounded cache of chunks in memory — the
// columnar block of descriptor IDs plus []float32 rows a
// chunkfile.Store's ReadChunk produces — fronting any Store as a
// CachingStore that itself satisfies the Store interface. On skewed
// workloads (the Zipf traffic of Tavenard–Amsaleg–Jégou) most reads touch
// the same hot chunks over and over; serving them from the cache skips
// the positioned read, while handing the rows out zero-copy.
//
// # Structure
//
// The cache is sharded into fixed lock stripes (16), each an LRU list
// over a map keyed by (store, chunk), with the byte budget split evenly
// across stripes. A hit moves the entry to the stripe's LRU front, pins
// it, and aliases its rows into the caller's Data. A miss reads through
// the inner store into the caller's Data and then takes the block the
// read landed in as the new entry (chunkfile.Data.TakeBlock): the Data is
// aliased back onto the entry under a pin and gets a recycled block for
// its next read, so a miss over a FileStore is one read into the entry's
// own memory, with no second copy. Rows a store aliases from its own
// memory (MemStore) are copied into the entry's block once. The insert
// evicts from the stripe's LRU tail until the entry fits.
//
// # Scan codes, built on the hit that pays for them
//
// An entry read often enough also carries the chunk's scan codes
// (chunkcode), which let a scan skip the exact distance of every row whose
// bound proves it cannot enter the heap. Building them costs far more
// than one scan saves, so an entry builds them on the hit that brings its
// hit count to CodeAt — a ski-rental rule: a resident working set codes
// itself during warm-up, while a thrashing cache, whose entries are
// evicted after a hit or two, never pays. The codes are published through
// an atomic pointer on the entry, their bytes are charged to the stripe
// when they attach (evicting from the LRU tail to fit), and their memory
// is pinned with the entry's block. A recycled entry drops its old codes'
// memory, so a later life that never codes is charged for its rows only.
// Only a backend with a SIMD code kernel builds codes (vec.CodeKernel).
//
// # Zero-copy discipline (refcount + immutable entries)
//
// Entries are immutable once published. A hit increments the entry's
// refcount and installs the entry as the Data's chunkfile.Pin; the next
// ReadChunk into that Data (or Data.Release) unpins it. A miss takes the
// missing reader's pin before the entry is published, so no eviction can
// recycle the block the reader's rows point into. Eviction removes
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

	"repro/internal/chunkcode"
	"repro/internal/chunkfile"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// stripeCount is the number of lock stripes; a power of two so the key
// hash folds with a mask.
const stripeCount = 16

// entryOverhead is the per-entry bookkeeping charge against the byte
// budget beyond the rows themselves: the entry struct, map slot, and
// slice headers, rounded generously so many tiny chunks cannot blow the
// real footprint past the configured bound.
const entryOverhead = 128

// CodeAt is the hit on which an entry builds its scan codes: the build's
// cost over what codes save per hit, the point past which building pays
// off (ski rental). Building a 1,000-row chunk of 24-d rows takes 212 µs
// (BenchmarkCodeBuild), and a scan with a full heap takes 3.2 µs exact
// and 0.76 µs on codes (BenchmarkKernelCodes, avx2): 2.45 µs saved. Hits
// per entry and full-heap scans per hit were counted in the served
// benchmark (bench/run.sh, 1M rows, 2 cores): a hit serves 0.95 such
// scans on serve_hot, 1.50 on serve_mixed and 2.2 on batch. The value
// matters only in a churning cache. A resident working set (serve_hot,
// batch) pays the uncoded hits once per entry, at most 0.3 ms, and
// serve_cold's entries are evicted before their 10th hit, so they never
// build. serve_mixed churns: its break-even is 212 ÷ (1.50 × 2.45) = 58
// hits, and replaying its measured entry lives (two seeds), the
// threshold with the least build plus uncoded-scan cost is 53 and 61,
// with 48 to 72 within 1% of it.
const CodeAt = 58

// entry is one cached chunk. Immutable once published: block, ids, vecs
// and dims never change after insert, and codes is set at most once;
// refs, evicted and freed manage the zero-copy handout (see the package
// comment).
type entry struct {
	key   uint64
	block chunkfile.Block // the columnar memory ids and vecs view
	ids   []descriptor.ID
	vecs  []float32
	dims  int

	// bytes is the budget charge: cap(block)·4 + entryOverhead, plus the
	// code memory once codes are built. Guarded by the stripe lock once published.
	bytes int64

	// hits counts the entry's hits since it was published; the one that
	// reaches CodeAt builds codes into mem and publishes them in codes.
	// Unlike the block, mem does not outlive the entry's life: adopt
	// drops it on reuse.
	hits  atomic.Int32
	codes atomic.Pointer[chunkcode.Codes]
	mem   chunkcode.Codes

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

// Cache is a byte-bounded, lock-striped LRU cache of chunks in memory.
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

// New returns a cache bounded to roughly maxBytes of cached rows
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

// adopt publishes the rows data holds under key as a new entry and
// aliases data onto it, pinned. The entry's memory is data's own block
// when data owns its rows (a FileStore read: no copy), else one copy of
// them; in exchange data gets the recycled entry's old block for its
// next read. The insert evicts from the stripe's LRU tail until the entry
// fits. If a racing miss published the key first, the new entry is never
// published: it is marked evicted, so data's Unpin recycles it. Chunks
// larger than the stripe's whole budget are not cached and data keeps its
// rows. Either way data keeps the inner read's FailedReads and Stall.
func (c *Cache) adopt(key uint64, data *chunkfile.Data, dims int) {
	s := c.stripeFor(key)
	count := len(data.IDs)
	if int64(count)*int64(dims+1)*4+entryOverhead > s.maxBytes {
		// Caching it would evict everything for one entry that can never
		// be afforded.
		return
	}

	// Reuse an evicted entry (and its block) when one is free.
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
	e.block = data.TakeBlock(e.block)
	e.ids, e.vecs = e.block.Rows(count, dims)
	e.key = key
	e.dims = dims
	e.mem = chunkcode.Codes{}
	e.bytes = int64(cap(e.block))*4 + entryOverhead
	e.hits.Store(0)
	e.codes.Store(nil)
	e.refs.Store(1) // data's pin, taken before the entry is published
	data.Alias(e.ids, e.vecs, dims, nil, e)

	s.mu.Lock()
	switch {
	case s.entries[key] != nil:
		// Lost the insert race: the published entry holds the same rows.
		e.evicted = true
	case e.bytes > s.maxBytes:
		// The block's capacity outgrew the stripe: serve it this once and
		// drop it without freelisting so the oversized block doesn't linger.
		e.evicted, e.freed = true, true
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

// code builds the scan codes of e, pinned by the caller's hit, and
// charges their bytes to e's stripe, evicting from the LRU tail until the
// stripe fits its budget again. It returns the codes, or nil when the
// chunk cannot be coded, its codes would not fit the stripe, or the entry
// left the cache meanwhile. Only the hit that reaches CodeAt calls it, so
// no other goroutine touches e.mem until the codes are published.
func (c *Cache) code(e *entry) *chunkcode.Codes {
	s := e.s
	if e.bytes+chunkcode.Size(len(e.ids), e.dims) > s.maxBytes {
		return nil
	}
	ok := chunkcode.Build(e.vecs, e.dims, &e.mem)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.evicted {
		return nil
	}
	grow := e.mem.Bytes()
	e.bytes += grow
	s.bytes += grow
	for s.bytes > s.maxBytes && s.tail != nil {
		c.evictLocked(s, s.tail)
	}
	if !ok || e.evicted {
		return nil
	}
	e.codes.Store(&e.mem)
	return &e.mem
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
	// Bytes and MaxBytes are current occupancy, scan codes included, and
	// the configured bound; Entries is the live entry count and Coded how
	// many of them carry scan codes.
	Bytes    int64
	MaxBytes int64
	Entries  int
	Coded    int
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
		for _, e := range s.entries {
			if e.codes.Load() != nil {
				st.Coded++
			}
		}
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

// ReadChunk implements chunkfile.Store. A hit aliases the cached rows, and
// their scan codes once built, into data zero-copy (pinning them until the
// next read into data) with FailedReads and Stall zero — the hit performed
// no attempts to bill. The hit that reaches CodeAt builds the codes. A
// miss delegates to the inner store and, on success, makes the rows it
// read the cache entry for future hits (adopt), aliasing data onto the
// entry; data keeps the inner read's FailedReads and Stall.
func (s *CachingStore) ReadChunk(i int, data *chunkfile.Data) error {
	if i < 0 || i >= len(s.inner.Meta()) {
		return chunkfile.ErrChunkOOB
	}
	key := s.key(i)
	if e := s.cache.get(key); e != nil {
		s.hits.Add(1)
		codes := e.codes.Load()
		if codes == nil && e.hits.Add(1) == CodeAt && vec.CodeKernel() {
			codes = s.cache.code(e)
		}
		data.Alias(e.ids, e.vecs, e.dims, codes, e)
		data.FailedReads, data.Stall = 0, 0
		return nil
	}
	s.misses.Add(1)
	if err := s.inner.ReadChunk(i, data); err != nil {
		return err
	}
	s.cache.adopt(key, data, s.inner.Dims())
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
