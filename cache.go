package repro

import "repro/internal/chunkcache"

// CacheStats reports a decoded-chunk cache's counters: hits, misses,
// evictions, current occupancy and budget in bytes, and entry count.
// Enabled is false — and every counter zero — when the index has no
// cache. All counters are cumulative since the cache was created.
type CacheStats = chunkcache.Stats

// OpenConfig configures OpenShardedWith beyond the index directory.
type OpenConfig struct {
	// CacheBytes, when positive, fronts the opened stores with one
	// decoded-chunk cache of that many bytes: chunks whose rows are
	// resident are handed to the scan zero-copy, skipping the read
	// entirely. The cache changes wall-clock time only — results,
	// simulated timings, and ChunksRead are byte-identical with or
	// without it, because the simulated cost model is charged from the
	// chunk index, never from the reads. Zero opens without a cache.
	CacheBytes int64
}

// CacheStats returns the index's decoded-chunk cache counters,
// aggregated across the shards; a cacheless index reports the zero value
// with Enabled false.
func (sx *ShardedIndex) CacheStats() CacheStats { return sx.router.CacheStats() }
