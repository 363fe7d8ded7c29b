// Command benchsnap measures the library's hot query paths on the current
// machine and writes a JSON perf snapshot (BENCH_<seq>.json). Snapshots
// committed over time form the performance trajectory of the repository:
// each entry records ns/op and allocs/op for the single-query exact
// search, the zero-allocation steady-state path, a 5-chunk approximate
// search, whole-workload batch throughput (both the allocating form and
// the chunk-major zero-allocation result arena), a multi-descriptor
// image query, and the sharded layer (single-query,
// batch at a matched total chunk budget under both the per-shard and the
// global budget discipline, and multi-descriptor), plus fault-tolerance
// rows: a Zipf-skewed workload run healthy and with one shard down at
// replication 1 and 2, each scored with p99 simulated time and recall
// against the exact ground truth.
//
// Schema 4 adds serving rows measured end to end over HTTP loopback
// through internal/server: sequential search latency (wall p50/p99 from
// the server's own histogram), shed rate under 2× saturating concurrency
// against a bounded in-flight limiter, and the degraded-response count
// with shard 0 held down at replication 1 (honest degradation) and 2
// (replicas mask the failure).
//
// Schema 5 adds decoded-chunk cache rows on the Zipf workload: wall
// throughput over a file-backed index with and without the cache (the
// cached row also records its hit rate), and the cost model's
// quality/time residency curve — simulated ms/query with the 0%, 10%,
// and 25% hottest chunks RAM-resident via simdisk.CacheTier.
//
// Schema 6 adds the batch-scheduler row — the Zipf budget-5 batch over
// the file-backed store on the engine's asynchronous per-chunk work
// queue (its lockstep round-barrier twin went away with that scheduler)
// — and a per-backend GB/s column for the query-pair shape of the multi
// kernel (2 queries per call, the shape the AVX2 pair kernel packs into
// one register).
//
// Usage:
//
//	benchsnap [-n 12000] [-chunk 300] [-k 30] [-seed 42] [-shards 4] [-out BENCH_10.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/chunkfile"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/server"
	"repro/internal/simdisk"
	"repro/internal/vec"
)

type measurement struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// SimMsPerQuery and ChunksPerQuery report the deterministic 2005
	// cost-model outcome per query (mean over the workload) — the
	// modeled serving metrics the paper's figures are drawn in. For
	// sharded entries Simulated is the max over the shards a query
	// touched, so these rows show the sharded response-time win
	// independent of the benchmark host's core count and load.
	SimMsPerQuery  float64 `json:"sim_ms_per_query,omitempty"`
	ChunksPerQuery float64 `json:"chunks_per_query,omitempty"`
	// SimMsP99 is the 99th-percentile per-query simulated time — the
	// tail-latency metric the Zipf/fault rows exist to expose. Recall is
	// the mean fraction of the true k-NN found (1.0 for a healthy
	// completion run; honestly lower for a degraded one).
	// DegradedQueries counts queries that skipped unavailable chunks and
	// SkippedPerQuery the mean chunks skipped, so a snapshot shows how
	// much data a degraded row actually lost.
	SimMsP99        float64 `json:"sim_ms_p99,omitempty"`
	Recall          float64 `json:"recall,omitempty"`
	DegradedQueries int     `json:"degraded_queries,omitempty"`
	SkippedPerQuery float64 `json:"chunks_skipped_per_query,omitempty"`
	// Serving-row fields (schema 4), all reported by the server itself:
	// WallP50Us/WallP99Us are end-to-end HTTP latency percentiles from
	// the server's lock-free histogram, ShedRate the fraction of requests
	// shed with 429/503 under the row's offered load.
	WallP50Us int64   `json:"wall_p50_us,omitempty"`
	WallP99Us int64   `json:"wall_p99_us,omitempty"`
	ShedRate  float64 `json:"shed_rate,omitempty"`
	// CacheHitRate (schema 5) is hits/(hits+misses) of the decoded-chunk
	// cache over the row's whole run, for rows run against a cached store.
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}

// withStats annotates a measurement with the cost-model outcome of one
// executed workload.
func withStats(m measurement, results []repro.Result) measurement {
	var simMs, chunks float64
	for i := range results {
		simMs += results[i].Simulated.Seconds() * 1e3
		chunks += float64(results[i].ChunksRead)
	}
	n := float64(len(results))
	m.SimMsPerQuery = simMs / n
	m.ChunksPerQuery = chunks / n
	return m
}

// withQuality annotates a measurement with the tail-latency and quality
// outcome of one executed workload: p99 simulated time, mean recall
// against the supplied ground truth, and the degradation counters.
func withQuality(m measurement, results []repro.Result, truths [][]repro.Neighbor) measurement {
	m = withStats(m, results)
	simMs := make([]float64, len(results))
	var recall, skipped float64
	for i := range results {
		simMs[i] = results[i].Simulated.Seconds() * 1e3
		recall += repro.Precision(results[i].Neighbors, truths[i])
		skipped += float64(results[i].ChunksSkipped)
		if results[i].Degraded {
			m.DegradedQueries++
		}
	}
	sort.Float64s(simMs)
	m.SimMsP99 = simMs[(len(simMs)*99+99)/100-1]
	m.Recall = recall / float64(len(results))
	m.SkippedPerQuery = skipped / float64(len(results))
	return m
}

// kernelThroughput is one backend's distance-kernel bandwidth: descriptor
// bytes streamed per second through the two scan kernels (dims=24,
// 4096-row backing for the single-query kernel, 16 queries × 256-row
// blocks — the batch engine's shape — for the multi kernel) plus the
// query-pair shape of the multi kernel (2 queries per call — the shape
// the AVX2 pair kernel serves from one 256-bit register).
type kernelThroughput struct {
	SquaredDistancesToGBps        float64 `json:"squared_distances_to_gbps"`
	SquaredDistancesMultiGBps     float64 `json:"squared_distances_multi_gbps"`
	SquaredDistancesMultiPairGBps float64 `json:"squared_distances_multi_pair_gbps"`
}

type snapshot struct {
	Schema      int    `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	N           int    `json:"collection_size"`
	ChunkSize   int    `json:"chunk_size"`
	K           int    `json:"k"`
	Seed        int64  `json:"seed"`
	Shards      int    `json:"shards"`
	// VecBackend is the kernel backend (vec.Backend()) the library
	// benchmarks below ran on; Kernels holds raw kernel bandwidth for
	// every backend this CPU can run, so a snapshot records both the
	// dispatch pick and the per-backend headroom it picked from.
	VecBackend string                      `json:"vec_backend"`
	Kernels    map[string]kernelThroughput `json:"kernels"`
	Benchmarks map[string]measurement      `json:"benchmarks"`
}

// kernelSnapshots measures every available kernel backend's bandwidth,
// restoring the dispatch pick before returning.
func kernelSnapshots() map[string]kernelThroughput {
	const dims, rows, nq, mrows = 24, 4096, 16, 256
	r := rand.New(rand.NewSource(1))
	backing := make([]float32, rows*dims)
	for i := range backing {
		backing[i] = float32(r.NormFloat64())
	}
	queries := make([]float32, nq*dims)
	for i := range queries {
		queries[i] = float32(r.NormFloat64())
	}
	q := vec.Vector(queries[:dims])
	out := make([]float64, nq*rows)

	active := vec.Backend()
	defer func() {
		if err := vec.UseBackend(active); err != nil {
			panic(err)
		}
	}()
	gbps := func(bytesPerOp int64, run func()) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run()
			}
		})
		return float64(bytesPerOp) / float64(res.NsPerOp())
	}
	kernels := make(map[string]kernelThroughput)
	for _, name := range vec.Backends() {
		if err := vec.UseBackend(name); err != nil {
			panic(err)
		}
		kernels[name] = kernelThroughput{
			SquaredDistancesToGBps: gbps(rows*dims*4, func() {
				vec.SquaredDistancesTo(q, backing, dims, out)
			}),
			SquaredDistancesMultiGBps: gbps(nq*mrows*dims*4, func() {
				vec.SquaredDistancesMulti(queries, backing[:mrows*dims], dims, out)
			}),
			SquaredDistancesMultiPairGBps: gbps(2*rows*dims*4, func() {
				vec.SquaredDistancesMulti(queries[:2*dims], backing, dims, out[:2*rows])
			}),
		}
	}
	return kernels
}

func toMeasurement(r testing.BenchmarkResult) measurement {
	return measurement{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
		OpsPerSec:   1e9 / float64(r.NsPerOp()),
	}
}

func main() {
	n := flag.Int("n", 12000, "collection size")
	chunk := flag.Int("chunk", 300, "chunk size")
	k := flag.Int("k", 30, "neighbors per query")
	seed := flag.Int64("seed", 42, "generator seed")
	shards := flag.Int("shards", 4, "shard count for the sharded benchmarks")
	out := flag.String("out", "BENCH_10.json", "output path")
	flag.Parse()

	coll := repro.GenerateCollection(*n, *seed)
	idx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: *chunk}, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: build:", err)
		os.Exit(1)
	}
	defer idx.Close()
	sharded, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: *chunk}, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: build sharded:", err)
		os.Exit(1)
	}
	defer sharded.Close()
	q := coll.Vec(17)
	queries, err := repro.DatasetQueries(coll, 200, *seed+1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: queries:", err)
		os.Exit(1)
	}

	snap := snapshot{
		Schema:      7,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		N:           *n,
		ChunkSize:   *chunk,
		K:           *k,
		Seed:        *seed,
		Shards:      *shards,
		VecBackend:  vec.Backend(),
		Kernels:     kernelSnapshots(),
		Benchmarks:  map[string]measurement{},
	}

	snap.Benchmarks["single_query_completion"] = toMeasurement(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.Search(q, repro.SearchOptions{K: *k}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	snap.Benchmarks["single_query_steady_state"] = toMeasurement(testing.Benchmark(func(b *testing.B) {
		var res repro.Result
		if err := idx.SearchInto(q, repro.SearchOptions{K: *k}, &res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := idx.SearchInto(q, repro.SearchOptions{K: *k}, &res); err != nil {
				b.Fatal(err)
			}
		}
	}))

	snap.Benchmarks["single_query_budget5"] = toMeasurement(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.Search(q, repro.SearchOptions{K: *k, MaxChunks: 5}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	workload := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.SearchBatch(queries, repro.BatchOptions{
				SearchOptions: repro.SearchOptions{K: *k, MaxChunks: 5},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	m := toMeasurement(workload)
	m.OpsPerSec *= float64(len(queries)) // per query, not per batch
	snap.Benchmarks["batch_budget5_200q"] = m

	// batchBench measures one arena-path batch configuration: wall time
	// via testing.Benchmark plus the deterministic cost-model stats from
	// the (identical every run) executed workload.
	batchBench := func(run func(results []repro.Result) error) measurement {
		results := make([]repro.Result, len(queries))
		r := testing.Benchmark(func(b *testing.B) {
			// Warm up inside the closure: the benchmark driver GCs before
			// every probe run (evicting the pooled arenas), so the warm-up
			// must repopulate them after that, or the one-off re-allocation
			// smears over the measured alloc/op average.
			if err := run(results); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(results); err != nil {
					b.Fatal(err)
				}
			}
		})
		m := toMeasurement(r)
		m.OpsPerSec *= float64(len(queries))
		return withStats(m, results)
	}

	// The zero-allocation batch path: the chunk-major engine with a
	// recycled caller-owned result arena. Steady state must be 0 allocs.
	snap.Benchmarks["batch_into_budget5_200q"] = batchBench(func(results []repro.Result) error {
		return idx.SearchBatchInto(queries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k, MaxChunks: 5},
		}, results)
	})

	// Whole-image multi-descriptor query: a 50-descriptor bag batched
	// against the store, 3-chunk budget per descriptor.
	bag := make([]repro.Vector, 50)
	for i := range bag {
		bag[i] = coll.Vec(i * 31)
	}
	snap.Benchmarks["multiquery_50desc"] = toMeasurement(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.MultiSearch(bag, repro.MultiSearchOptions{K: 10, MaxChunks: 3}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Sharded triples. Three comparisons at the same total
	// chunk bill (shards×5 chunks/query), all pinned equivalent by tests:
	//
	//   - Single engine at budget shards×5: the quality baseline — the
	//     globally best-ranked chunks, one simulated machine.
	//   - Per-shard budget 5 on S shards: the same bill spent on each
	//     shard's local top 5 — modeled response time divides by ~S but
	//     the chunks are not the globally best ones.
	//   - Global budget shards×5 on S shards: the global-budget router —
	//     the identical chunks (and neighbors) as the single engine, with
	//     each chunk charged to its owning shard's parallel machine. Same
	//     chunks_per_query as the single engine, sharded
	//     sim_ms_per_query: the closed gap BENCH_5 records.
	//
	// A run-to-completion pair rides along: identical exact answers from
	// the single engine and the sharded walk. sim_ms_per_query is the
	// deterministic serving metric the repo's figures are drawn in.
	totalBudget := *shards * 5
	singleKey := fmt.Sprintf("batch_into_budget%d_200q", totalBudget)
	if _, done := snap.Benchmarks[singleKey]; !done { // -shards 1 matches the budget-5 entry above
		snap.Benchmarks[singleKey] = batchBench(func(results []repro.Result) error {
			return idx.SearchBatchInto(queries, repro.BatchOptions{
				SearchOptions: repro.SearchOptions{K: *k, MaxChunks: totalBudget},
			}, results)
		})
	}
	snap.Benchmarks[fmt.Sprintf("sharded%d_batch_into_budget5_200q", *shards)] = batchBench(func(results []repro.Result) error {
		return sharded.SearchBatchInto(queries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k, MaxChunks: 5},
		}, results)
	})
	snap.Benchmarks[fmt.Sprintf("sharded%d_batch_into_global_budget%d_200q", *shards, totalBudget)] = batchBench(func(results []repro.Result) error {
		return sharded.SearchBatchInto(queries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k, MaxChunks: totalBudget, GlobalBudget: true},
		}, results)
	})
	snap.Benchmarks[fmt.Sprintf("sharded%d_batch_into_global_completion_200q", *shards)] = batchBench(func(results []repro.Result) error {
		return sharded.SearchBatchInto(queries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k, GlobalBudget: true},
		}, results)
	})
	snap.Benchmarks["batch_into_completion_200q"] = batchBench(func(results []repro.Result) error {
		return idx.SearchBatchInto(queries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k},
		}, results)
	})
	snap.Benchmarks[fmt.Sprintf("sharded%d_batch_into_completion_200q", *shards)] = batchBench(func(results []repro.Result) error {
		return sharded.SearchBatchInto(queries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k},
		}, results)
	})

	snap.Benchmarks[fmt.Sprintf("sharded%d_single_completion", *shards)] = toMeasurement(testing.Benchmark(func(b *testing.B) {
		var res repro.Result
		if err := sharded.SearchInto(q, repro.SearchOptions{K: *k}, &res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sharded.SearchInto(q, repro.SearchOptions{K: *k}, &res); err != nil {
				b.Fatal(err)
			}
		}
	}))

	snap.Benchmarks[fmt.Sprintf("sharded%d_multiquery_50desc", *shards)] = toMeasurement(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sharded.MultiSearch(bag, repro.MultiSearchOptions{K: 10, MaxChunks: 3}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Fault-tolerance rows: a Zipf-skewed workload (the access pattern
	// replication targets) run to completion, healthy and with shard 0
	// held down, at replication 1 and 2. Ground truth over the full
	// collection scores every row's recall, so the degraded R=1 row shows
	// honestly how much quality one lost shard costs, while the R=2 rows
	// show the failover serving identical answers; sim_ms_p99 shows what
	// the failure does to tail latency under skew. A global-budget 5-chunk
	// row shows the discipline where skew bites hardest, hot chunks
	// concentrated by the global rank.
	zipfQueries, err := repro.ZipfQueries(coll, 200, 1.3, *seed+2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: zipf queries:", err)
		os.Exit(1)
	}
	truths := make([][]repro.Neighbor, len(zipfQueries))
	for i, zq := range zipfQueries {
		truths[i] = repro.Exact(coll, zq, *k)
	}
	replicated, err := repro.BuildReplicated(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: *chunk},
		*shards, 2, zipfQueries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: build replicated:", err)
		os.Exit(1)
	}
	defer replicated.Close()

	zipfBench := func(sx *repro.ShardedIndex, down bool, opts repro.SearchOptions) measurement {
		sx.ResetHealth()
		if down {
			sx.MarkShardDown(0)
		}
		defer sx.ResetHealth()
		results := make([]repro.Result, len(zipfQueries))
		run := func() error {
			return sx.SearchBatchInto(zipfQueries, repro.BatchOptions{SearchOptions: opts}, results)
		}
		r := testing.Benchmark(func(b *testing.B) {
			if err := run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		m := toMeasurement(r)
		m.OpsPerSec *= float64(len(zipfQueries))
		return withQuality(m, results, truths)
	}
	completion := repro.SearchOptions{K: *k}
	for _, row := range []struct {
		name string
		sx   *repro.ShardedIndex
		down bool
		opts repro.SearchOptions
	}{
		{fmt.Sprintf("sharded%d_r1_zipf_completion_healthy", *shards), sharded, false, completion},
		{fmt.Sprintf("sharded%d_r1_zipf_completion_1down", *shards), sharded, true, completion},
		{fmt.Sprintf("sharded%d_r2_zipf_completion_healthy", *shards), replicated, false, completion},
		{fmt.Sprintf("sharded%d_r2_zipf_completion_1down", *shards), replicated, true, completion},
		{fmt.Sprintf("sharded%d_r2_zipf_budget5_global", *shards), replicated, false,
			repro.SearchOptions{K: *k, MaxChunks: 5, GlobalBudget: true}},
	} {
		snap.Benchmarks[row.name] = zipfBench(row.sx, row.down, row.opts)
	}

	// Serving rows (schema 4): the online layer measured end to end over
	// HTTP loopback. The prober never starts (the handler is served
	// directly), so a MarkShardDown drill stays down for the row; wall
	// percentiles come from the server's own histogram, shed rate from
	// its outcome counters.
	servingRow := func(backend server.Backend, cfg server.Config, workers, perWorker, maxChunks int) measurement {
		reg := server.NewRegistry()
		if err := reg.Add("bench", backend); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap: serving:", err)
			os.Exit(1)
		}
		s := server.New(reg, cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		client := ts.Client()
		defer client.CloseIdleConnections()

		bodies := make([][]byte, len(queries))
		for i, zq := range queries {
			raw, err := json.Marshal(server.SearchRequest{Query: zq, K: *k, MaxChunks: maxChunks})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsnap: serving:", err)
				os.Exit(1)
			}
			bodies[i] = raw
		}
		do := func(i int) {
			resp, err := client.Post(ts.URL+"/v1/indexes/bench/search", "application/json",
				bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsnap: serving request:", err)
				os.Exit(1)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		// Warm the HTTP connection off the books: /healthz is not metered,
		// so the measured counters cover exactly the workers' requests.
		if resp, err := client.Get(ts.URL + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}

		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					do(w*perWorker + i)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)

		ms := s.Metrics().Snapshot(0, nil)
		return measurement{
			NsPerOp:         elapsed.Nanoseconds() / ms.Requests,
			Iterations:      int(ms.Requests),
			OpsPerSec:       float64(ms.Requests) / elapsed.Seconds(),
			WallP50Us:       ms.WallP50Us,
			WallP99Us:       ms.WallP99Us,
			ShedRate:        float64(ms.ShedInFlight+ms.ShedTenant) / float64(ms.Requests),
			DegradedQueries: int(ms.Degraded),
		}
	}

	snap.Benchmarks["serving_search_seq_200q"] = servingRow(sharded, server.Config{}, 1, len(queries), 5)
	snap.Benchmarks["serving_shed_2x_inflight4"] = servingRow(sharded,
		server.Config{MaxInFlight: 4}, 8, 50, 5)
	sharded.MarkShardDown(0)
	snap.Benchmarks[fmt.Sprintf("serving_degraded_r1_1down_%dq", len(queries))] =
		servingRow(sharded, server.Config{}, 1, len(queries), 0)
	sharded.ResetHealth()
	replicated.MarkShardDown(0)
	snap.Benchmarks[fmt.Sprintf("serving_degraded_r2_1down_%dq", len(queries))] =
		servingRow(replicated, server.Config{}, 1, len(queries), 0)
	replicated.ResetHealth()

	// Cache rows (schema 5). First the wall-clock effect: the same Zipf
	// budget-5 batch over a file-backed index, cacheless vs behind a
	// decoded-chunk cache big enough to go hot. Results are byte-identical
	// (pinned by tests); only wall time and the hit rate differ.
	cacheDir, err := os.MkdirTemp("", "benchsnap-cache-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: cache dir:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(cacheDir)
	if err := idx.Save(cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: cache save:", err)
		os.Exit(1)
	}
	fileBench := func(cfg repro.OpenConfig) measurement {
		ix, err := repro.OpenShardedWith(cacheDir, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap: cache open:", err)
			os.Exit(1)
		}
		defer ix.Close()
		results := make([]repro.Result, len(zipfQueries))
		run := func() error {
			return ix.SearchBatchInto(zipfQueries, repro.BatchOptions{
				SearchOptions: repro.SearchOptions{K: *k, MaxChunks: 5},
			}, results)
		}
		r := testing.Benchmark(func(b *testing.B) {
			if err := run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		m := toMeasurement(r)
		m.OpsPerSec *= float64(len(zipfQueries))
		m = withStats(m, results)
		if st := ix.CacheStats(); st.Enabled {
			m.CacheHitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		return m
	}
	snap.Benchmarks["zipf_budget5_file_uncached_200q"] = fileBench(repro.OpenConfig{})
	snap.Benchmarks["zipf_budget5_file_cached_200q"] = fileBench(repro.OpenConfig{CacheBytes: 256 << 20})

	// Batch-scheduler row (schema 6): the same Zipf budget-5 batch over
	// the file-backed store, run through the internal engine's
	// asynchronous per-chunk work queue, where chunk decodes have real
	// latency. The row keeps its name so the trajectory stays diffable.
	schedStore, err := chunkfile.Open(cacheDir+"/shard-0.chunk", cacheDir+"/shard-0.idx")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: scheduler open:", err)
		os.Exit(1)
	}
	defer schedStore.Close()
	schedEng := batchexec.New(schedStore, nil)
	schedBench := func() measurement {
		results := make([]search.Result, len(zipfQueries))
		run := func() error {
			return schedEng.Run(zipfQueries, batchexec.Options{
				K:       *k,
				Stop:    search.ChunkBudget(5),
				Overlap: true,
			}, results)
		}
		r := testing.Benchmark(func(b *testing.B) {
			if err := run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		m := toMeasurement(r)
		m.OpsPerSec *= float64(len(zipfQueries))
		var simMs, chunks float64
		for i := range results {
			simMs += results[i].Elapsed.Seconds() * 1e3
			chunks += float64(results[i].ChunksRead)
		}
		m.SimMsPerQuery = simMs / float64(len(results))
		m.ChunksPerQuery = chunks / float64(len(results))
		return m
	}
	snap.Benchmarks["zipf_budget5_file_sched_async_200q"] = schedBench()

	// Then the modeled residency curve: the 2005 machine with the top-N%
	// hottest chunks RAM-resident (simdisk.CacheTier), same workload. The
	// 0% row is the baseline and doubles as the access-profiling pass that
	// the 10% and 25% promotions rank chunks by; a resident chunk is
	// charged only its CPU scan, so sim_ms_per_query falls as residency
	// grows while answers and chunks_per_query stay identical.
	tierModel := repro.CostModel(*simdisk.Default2005())
	tier := simdisk.NewCacheTier(idx.Chunks())
	tierModel.Cache = tier
	residentRow := func(frac float64) measurement {
		tier.SetResidentTopFraction(frac)
		results := make([]repro.Result, len(zipfQueries))
		if err := idx.SearchBatchInto(zipfQueries, repro.BatchOptions{
			SearchOptions: repro.SearchOptions{K: *k, MaxChunks: 5, Model: &tierModel},
		}, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap: resident row:", err)
			os.Exit(1)
		}
		return withStats(measurement{Iterations: 1}, results)
	}
	snap.Benchmarks["zipf_budget5_sim_resident0"] = residentRow(0)
	snap.Benchmarks["zipf_budget5_sim_resident10"] = residentRow(0.10)
	snap.Benchmarks["zipf_budget5_sim_resident25"] = residentRow(0.25)

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (vec backend %s)\n", *out, snap.VecBackend)
	kNames := make([]string, 0, len(snap.Kernels))
	for name := range snap.Kernels {
		kNames = append(kNames, name)
	}
	sort.Strings(kNames)
	for _, name := range kNames {
		kt := snap.Kernels[name]
		fmt.Printf("  kernel %-10s %6.2f GB/s dists-to  %6.2f GB/s dists-multi  %6.2f GB/s dists-multi-pair\n",
			name, kt.SquaredDistancesToGBps, kt.SquaredDistancesMultiGBps, kt.SquaredDistancesMultiPairGBps)
	}
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := snap.Benchmarks[name]
		line := fmt.Sprintf("  %-36s %10d ns/op  %6.0f ops/s  %3d allocs/op",
			name, m.NsPerOp, m.OpsPerSec, m.AllocsPerOp)
		if m.SimMsPerQuery > 0 {
			line += fmt.Sprintf("  %8.1f sim-ms/q  %5.1f chunks/q", m.SimMsPerQuery, m.ChunksPerQuery)
		}
		if m.Recall > 0 {
			line += fmt.Sprintf("  %8.1f sim-ms/p99  %.3f recall", m.SimMsP99, m.Recall)
			if m.DegradedQueries > 0 {
				line += fmt.Sprintf("  (%d degraded, %.1f skipped/q)", m.DegradedQueries, m.SkippedPerQuery)
			}
		}
		if m.WallP99Us > 0 {
			line += fmt.Sprintf("  wall p50 %dµs p99 %dµs  shed %.2f  %d degraded",
				m.WallP50Us, m.WallP99Us, m.ShedRate, m.DegradedQueries)
		}
		if m.CacheHitRate > 0 {
			line += fmt.Sprintf("  %.2f hit rate", m.CacheHitRate)
		}
		fmt.Println(line)
	}
}
