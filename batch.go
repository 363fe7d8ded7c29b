package repro

import (
	"errors"
	"fmt"

	"repro/internal/search"
	"repro/internal/search/batchexec"
)

// BatchOptions extends SearchOptions with a parallelism degree for
// running a whole workload (the paper runs 1,000-query workloads, §5.3).
type BatchOptions struct {
	SearchOptions
	// Parallelism caps the batch's concurrency (0 = GOMAXPROCS, 1 = run
	// entirely on the calling goroutine).
	Parallelism int
}

// SearchBatchInto runs every query through the chunk-major batch engine,
// writing the outcome of queries[qi] into results[qi]. Instead of one
// independent search per query, the engine runs an asynchronous
// per-chunk work queue over the whole fleet's chunks: each chunk wanted
// by at least one unfinished query is read and decoded once and scanned
// against all of its current subscribers while its descriptors are hot
// in cache, with no barrier between chunks — a slow decode only delays
// the queries that want that chunk. Results are byte-identical to
// per-query Search calls in either budget discipline — each query still
// consumes chunks in its own rank order, applies its stop rule after
// every chunk, and owns its per-shard simulated pipelines, so Simulated
// remains a per-query time (never wall-aggregated across the batch).
//
// The results array is the caller-owned arena: neighbor slices already in
// it are reused when they have capacity, so recycling one results array
// across batches (the steady-state serving pattern) performs zero
// allocations per batch. Wall is the real time from batch start until
// the query's own retirement.
//
// The batch fails fast: any error aborts the run and is reported for the
// lowest-numbered query that hit it; no results are valid afterwards.
func (sx *ShardedIndex) SearchBatchInto(queries []Vector, opts BatchOptions, results []Result) error {
	return sx.SearchBatchStream(queries, opts, results, nil)
}

// SearchBatchStream runs the batch like SearchBatchInto and streams
// per-query completions: done(qi) fires exactly once per query, the
// moment the engine retires it with results[qi] holding its outcome —
// long before the batch returns while other queries still run.
// Callbacks for distinct queries may fire concurrently (they run on the
// engine's scan workers), so done must be safe for concurrent use and
// must not block; hand slow consumers a channel. On error, queries whose callback already fired retain valid
// results; the rest are invalid. A nil done degenerates to
// SearchBatchInto. ShardsDown is sampled once per batch: before the run
// when streaming, after it otherwise.
func (sx *ShardedIndex) SearchBatchStream(queries []Vector, opts BatchOptions, results []Result, done func(query int)) error {
	if err := opts.SearchOptions.validate(); err != nil {
		return err
	}
	if len(results) != len(queries) {
		return fmt.Errorf("repro: batch results length %d != queries length %d", len(results), len(queries))
	}
	if len(queries) == 0 {
		return nil
	}
	sp := sx.arena(len(queries))
	defer sx.batchPool.Put(sp)
	srs := (*sp)[:len(queries)]
	// Lend the caller's neighbor slices for the run; the PerMachine
	// buffers stay the pool's own across batches.
	for i := range results {
		srs[i].Neighbors = results[i].Neighbors[:0]
	}
	defer func() {
		for i := range srs {
			srs[i].Neighbors = nil
		}
	}()
	var onDone func(int)
	if done != nil {
		down := sx.router.DownShards()
		onDone = func(qi int) {
			results[qi] = toResult(&srs[qi], down)
			done(qi)
		}
	}
	if err := sx.run(queries, opts, srs, onDone); err != nil {
		return err
	}
	if done == nil {
		down := sx.router.DownShards()
		for i := range results {
			results[i] = toResult(&srs[i], down)
		}
	}
	return nil
}

// arena borrows a pooled search-layer result array of at least n slots;
// the caller returns it to sx.batchPool.
func (sx *ShardedIndex) arena(n int) *[]search.Result {
	sp := sx.batchPool.Get().(*[]search.Result)
	if cap(*sp) < n {
		*sp = make([]search.Result, n)
	}
	return sp
}

// run is the facade's one call into the engine: every batch, point
// query and multi-descriptor bag runs here.
func (sx *ShardedIndex) run(queries []Vector, opts BatchOptions, srs []search.Result, done func(int)) error {
	err := sx.router.RunBatchStream(queries, batchexec.Options{
		K:            opts.K,
		Stop:         stopRule(opts.SearchOptions),
		Model:        opts.Model,
		Overlap:      opts.Overlap,
		GlobalBudget: opts.GlobalBudget,
		Parallelism:  opts.Parallelism,
		Ctx:          opts.Ctx,
	}, srs, done)
	if err != nil {
		var qe *batchexec.QueryError
		if errors.As(err, &qe) {
			return fmt.Errorf("repro: batch query %d: %w", qe.Query, qe.Err)
		}
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}

// toResult converts a search-layer outcome into the facade's Result.
func toResult(sr *search.Result, shardsDown int) Result {
	return Result{
		Neighbors:     sr.Neighbors,
		ChunksRead:    sr.ChunksRead,
		Simulated:     sr.Elapsed,
		Wall:          sr.Wall,
		Exact:         sr.Exact,
		Degraded:      sr.Degraded,
		ChunksSkipped: sr.ChunksSkipped,
		ShardsDown:    shardsDown,
	}
}

// SearchBatch runs every query and returns the merged results in query
// order. It is the allocating convenience form of SearchBatchInto;
// steady-state callers should recycle a results array through
// SearchBatchInto instead.
func (sx *ShardedIndex) SearchBatch(queries []Vector, opts BatchOptions) ([]*Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	backing := make([]Result, len(queries))
	if err := sx.SearchBatchInto(queries, opts, backing); err != nil {
		return nil, err
	}
	out := make([]*Result, len(queries))
	for i := range backing {
		out[i] = &backing[i]
	}
	return out, nil
}
