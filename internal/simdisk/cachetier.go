// The cache tier: the simulated counterpart of the real decoded-chunk
// cache (internal/chunkcache). Where the real cache saves wall-clock by
// skipping reads and decodes, the tier lets the 2005 cost model answer
// the paper-style question "what does the quality/time trade-off look
// like when the hottest N% of chunks are RAM-resident?": a resident
// chunk costs only its CPU scan — no seek, no transfer — while every
// other chunk is charged exactly as before.
package simdisk

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// CacheTier marks a subset of a store's chunks as RAM-resident for the
// simulated cost model and records per-chunk access counts, so a
// profiling run (nothing resident — timings identical to no tier at
// all) can pick the hottest chunks for the next run.
//
// Chunk indexes are those of the store the pipeline's search runs over:
// for a sharded index the router's fleet-wide store, under either budget
// discipline, so a tier sized by the index's chunk count covers every
// shard.
//
// Counters are atomic, so concurrent searches (the batch engine) may
// share a tier; SetResidentTopFraction, however, must not run
// concurrently with searches — retune between runs, exactly like
// swapping the model.
type CacheTier struct {
	resident []bool
	counts   []atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewCacheTier returns a tier over the given chunk count with nothing
// resident: attached to a model it changes no timing, only profiles
// access counts.
func NewCacheTier(chunks int) *CacheTier {
	return &CacheTier{resident: make([]bool, chunks), counts: make([]atomic.Int64, chunks)}
}

// Resident reports whether chunk i is RAM-resident in the model.
func (t *CacheTier) Resident(i int) bool {
	return i >= 0 && i < len(t.resident) && t.resident[i]
}

// observe records one charged chunk access and returns its residency.
func (t *CacheTier) observe(i int) bool {
	if i < 0 || i >= len(t.resident) {
		return false
	}
	t.counts[i].Add(1)
	if t.resident[i] {
		t.hits.Add(1)
		return true
	}
	t.misses.Add(1)
	return false
}

// SetResidentTopFraction marks the ceil(fraction·chunks) chunks with the
// highest observed access counts resident (ties broken by ascending
// chunk index, so the choice is deterministic) and every other chunk
// non-resident. It returns the resident count. Call between runs, not
// concurrently with searches.
func (t *CacheTier) SetResidentTopFraction(fraction float64) int {
	n := len(t.resident)
	for i := range t.resident {
		t.resident[i] = false
	}
	if fraction <= 0 || n == 0 {
		return 0
	}
	keep := int(math.Ceil(fraction * float64(n)))
	if keep > n {
		keep = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := t.counts[order[a]].Load(), t.counts[order[b]].Load()
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	for _, i := range order[:keep] {
		t.resident[i] = true
	}
	return keep
}

// ResidentCount returns the number of chunks currently resident.
func (t *CacheTier) ResidentCount() int {
	n := 0
	for _, r := range t.resident {
		if r {
			n++
		}
	}
	return n
}

// Hits returns the number of charged chunk accesses served from the
// simulated RAM tier.
func (t *CacheTier) Hits() int64 { return t.hits.Load() }

// Misses returns the number of charged chunk accesses that paid the
// disk read.
func (t *CacheTier) Misses() int64 { return t.misses.Load() }

// ResetStats zeroes the hit/miss counters, keeping the per-chunk access
// profile (so residency retuning across runs still sees every access).
func (t *CacheTier) ResetStats() {
	t.hits.Store(0)
	t.misses.Store(0)
}

// ChunkAt advances the pipeline by chunk idx of the given on-disk size
// and descriptor count — Chunk with a cache-tier consultation. When the
// model carries a tier and the chunk is resident, only the CPU scan is
// charged: in overlapped mode the CPU clock advances with no I/O issued
// (the read stream is untouched, free to prefetch ahead), in serial
// mode the elapsed time grows by the scan alone. Non-resident chunks —
// and every chunk when the model has no tier — are charged exactly like
// Chunk, so a tier-less ChunkAt is byte-identical to Chunk.
func (p *Pipeline) ChunkAt(idx, bytes, descriptors int) time.Duration {
	if t := p.model.Cache; t != nil && t.observe(idx) {
		cpu := p.model.CPUTime(descriptors)
		if p.overlap {
			p.cpuDone += cpu
		} else {
			p.ioDone += cpu
			p.cpuDone = p.ioDone
		}
		return p.cpuDone
	}
	return p.Chunk(bytes, descriptors)
}
