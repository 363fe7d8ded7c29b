package repro

import (
	"errors"
	"fmt"

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
// The results array is the caller-owned arena: neighbor and PerMachine
// slices already in it are reused when they have capacity, so recycling
// one results array across batches (the steady-state serving pattern)
// performs zero allocations per batch. Wall is the real time from batch
// start until the query's own retirement.
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
// must not block; hand slow consumers a channel. On error, queries whose
// callback already fired retain valid results; the rest are invalid. A
// nil done degenerates to SearchBatchInto. Every batch, point query and
// multi-descriptor bag runs here: the facade's one call into the engine.
func (sx *ShardedIndex) SearchBatchStream(queries []Vector, opts BatchOptions, results []Result, done func(query int)) error {
	if err := opts.SearchOptions.validate(); err != nil {
		return err
	}
	if len(results) != len(queries) {
		return fmt.Errorf("repro: batch results length %d != queries length %d", len(results), len(queries))
	}
	err := sx.engine.RunStream(queries, batchexec.Options{
		K:            opts.K,
		Stop:         stopRule(opts.SearchOptions),
		Overlap:      opts.Overlap,
		GlobalBudget: opts.GlobalBudget,
		Parallelism:  opts.Parallelism,
		Ctx:          opts.Ctx,
	}, results, done)
	if err != nil {
		var qe *batchexec.QueryError
		if errors.As(err, &qe) {
			return fmt.Errorf("repro: batch query %d: %w", qe.Query, qe.Err)
		}
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}
