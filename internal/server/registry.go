// Package server is the online serving layer over the repro facade: a
// registry of named open indexes behind an HTTP/JSON API with the
// robustness envelope a 2005-era image-search deployment needed and a
// current one still does — per-request deadlines propagated down to the
// chunk loop, admission control (a bounded in-flight limiter plus
// per-tenant token buckets denominated in chunks, the system's real
// currency), honest degraded results when shards are down, a probe loop
// that has each index reconcile its shards' health, panic containment,
// and graceful shutdown that drains in-flight requests without leaking
// goroutines.
//
// The package deliberately sits above the public repro facade rather
// than the internal engines: everything the server does is expressible
// in terms a library user could also write, which keeps the HTTP layer
// honest about what the facade exposes.
package server

import (
	"fmt"
	"sort"
	"sync"

	"repro"
)

// Backend is the slice of the repro facade the server serves.
// *repro.ShardedIndex satisfies it structurally — a single-machine index
// is a one-shard ShardedIndex — and tests substitute fakes. Two entry
// points reach the engine: every /search and /batch is one
// SearchBatchStream call, every /multi one MultiSearch. Shard health is
// the index's own: the server reads it and calls Probe on a timer, and
// no method here sets it.
type Backend interface {
	// SearchBatchStream runs a batch through the chunk-major engine;
	// /search is a batch of one. A non-nil done(qi) fires once per query
	// as soon as it retires, with results[qi] fully written (the /batch
	// endpoint's stream mode); with a nil done the results are written
	// when the call returns.
	SearchBatchStream(queries []repro.Vector, opts repro.BatchOptions, results []repro.Result, done func(query int)) error
	// MultiSearch runs a whole-image bag of descriptors with image voting.
	MultiSearch(descriptors []repro.Vector, opts repro.MultiSearchOptions) (*repro.MultiResult, error)
	// MaxReads is the most chunks one query under opts can read, as
	// repro.ShardedIndex.MaxReads computes it from the walk's plan:
	// admission prices a request at MaxReads per query.
	MaxReads(opts repro.SearchOptions) int
	// Chunks is the number of chunks in the index.
	Chunks() int
	// Len is the number of indexed descriptors.
	Len() int
	// Close releases the index.
	Close() error

	// Shards is the number of shards.
	Shards() int
	// ShardDown reports whether shard s is currently held down.
	ShardDown(s int) bool
	// ShardsDown counts the shards currently held down.
	ShardsDown() int
	// Probe reconciles shard health with the stores, as
	// repro.ShardedIndex.Probe does; the server calls it every
	// Config.ProbeInterval.
	Probe()
	// ShardLoads returns per-shard serving-load counters — the reads each
	// shard actually served — cumulative since construction.
	ShardLoads() []repro.ShardLoad
	// CacheStats returns the cumulative decoded-chunk cache counters; a
	// cacheless index reports Enabled false.
	CacheStats() repro.CacheStats
}

// Registry is the server's set of named open indexes. It is safe for
// concurrent use; registration normally happens at startup, lookups on
// every request.
type Registry struct {
	mu       sync.RWMutex
	backends map[string]Backend
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{backends: map[string]Backend{}}
}

// Add registers b under name. Registering a duplicate name is a
// configuration bug and is reported as an error rather than silently
// replacing a live index.
func (r *Registry) Add(name string, b Backend) error {
	if name == "" {
		return fmt.Errorf("server: index name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.backends[name]; ok {
		return fmt.Errorf("server: index %q already registered", name)
	}
	r.backends[name] = b
	return nil
}

// Get returns the backend registered under name, or false.
func (r *Registry) Get(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.backends[name]
	return b, ok
}

// Names returns the registered index names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.backends))
	for name := range r.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CloseAll closes every registered backend, keeping the first error, and
// empties the registry. Called once at shutdown, after draining.
func (r *Registry) CloseAll() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for name, b := range r.backends {
		if err := b.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing index %q: %w", name, err)
		}
	}
	r.backends = map[string]Backend{}
	return first
}
