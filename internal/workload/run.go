package workload

import (
	"math"
	"slices"
	"time"

	"repro/internal/search"
	"repro/internal/shard"
)

// Stats aggregates one workload execution.
type Stats struct {
	Queries    int
	ChunksRead int           // total chunks processed across queries
	Simulated  time.Duration // summed per-query simulated time
	Exact      int           // queries whose result was provably exact
	// ChunksSkipped is the total chunks skipped as unavailable across
	// queries; Degraded counts the queries that skipped at least one.
	ChunksSkipped int
	Degraded      int
}

// Summarize folds per-query results into workload-level statistics.
func Summarize(results []search.Result) Stats {
	st := Stats{Queries: len(results)}
	for i := range results {
		st.ChunksRead += results[i].ChunksRead
		st.Simulated += results[i].Elapsed
		if results[i].Exact {
			st.Exact++
		}
		st.ChunksSkipped += results[i].ChunksSkipped
		if results[i].Degraded {
			st.Degraded++
		}
	}
	return st
}

// MeanSimulated returns the average simulated seconds per query.
func (s Stats) MeanSimulated() float64 {
	if s.Queries == 0 {
		return 0
	}
	return s.Simulated.Seconds() / float64(s.Queries)
}

// SimulatedQuantile returns the q-quantile (0 < q <= 1, e.g. 0.99 for
// the p99) of the per-query simulated times in results, using the
// nearest-rank definition: the ceil(q×n)-th smallest value. It sorts a
// scratch copy, never the results, and returns 0 on an empty slice —
// the tail-latency readout the heat-balance rows of the benchmark
// report.
func SimulatedQuantile(results []search.Result, q float64) time.Duration {
	if len(results) == 0 || q <= 0 {
		return 0
	}
	times := make([]time.Duration, len(results))
	for i := range results {
		times[i] = results[i].Elapsed
	}
	slices.Sort(times)
	rank := int(math.Ceil(q * float64(len(times))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(times) {
		rank = len(times)
	}
	return times[rank-1]
}

// Stddev returns the population standard deviation of xs (0 when
// empty) — the imbalance readout over a per-shard load split: feed it
// the shards' served-read counts (shard.Router.ShardLoads); lower means
// the load spread more evenly across the fleet.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	return math.Sqrt(varsum / float64(len(xs)))
}

// LoadReads extracts the shards' served-read counts from a per-shard
// load split, as float64s for Stddev.
func LoadReads(loads []shard.ShardLoad) []float64 {
	xs := make([]float64, len(loads))
	for i, ld := range loads {
		xs[i] = float64(ld.Reads)
	}
	return xs
}
