// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact; see DESIGN.md §4), plus build benchmarks for
// the two chunk-forming strategies.
//
// The shared lab (collection, workloads, BAG and SR indexes at every
// granularity) is built once outside the timer; each benchmark iteration
// performs the measurement work of its table or figure. Scale with
// REPRO_BENCH_N (default 12,000 descriptors — large enough for every
// qualitative effect, small enough for -bench=. runs).
package repro

import (
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bag"
	"repro/internal/experiments"
	"repro/internal/srtree"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchErr  error
)

func benchN() int {
	if s := os.Getenv("REPRO_BENCH_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 12000
}

func getBenchLab(b *testing.B) *experiments.Lab {
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.N = benchN()
		cfg.Queries = 10
		cfg.K = 20
		cfg.TargetSizes = []int{150, 300, 450}
		cfg.Names = []string{"SMALL", "MEDIUM", "LARGE"}
		benchLab, benchErr = experiments.NewLab(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// BenchmarkTable1 regenerates Table 1 (chunk index properties).
func BenchmarkTable1(b *testing.B) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(lab)
		res.Render(io.Discard)
	}
}

// BenchmarkFigure1 regenerates Figure 1 (sizes of the largest chunks).
func BenchmarkFigure1(b *testing.B) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure1(lab, 30)
		res.Render(io.Discard)
	}
}

// BenchmarkFigure2 regenerates Figure 2 (chunks to find neighbors, DQ).
func BenchmarkFigure2(b *testing.B) {
	benchCurve(b, "DQ", false)
}

// BenchmarkFigure3 regenerates Figure 3 (chunks to find neighbors, SQ).
func BenchmarkFigure3(b *testing.B) {
	benchCurve(b, "SQ", false)
}

// BenchmarkFigure4 regenerates Figure 4 (time to find neighbors, DQ).
func BenchmarkFigure4(b *testing.B) {
	benchCurve(b, "DQ", true)
}

// BenchmarkFigure5 regenerates Figure 5 (time to find neighbors, SQ).
func BenchmarkFigure5(b *testing.B) {
	benchCurve(b, "SQ", true)
}

func benchCurve(b *testing.B, workload string, timeAxis bool) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if timeAxis {
			_, err = experiments.Figure45(lab, workload)
		} else {
			_, err = experiments.Figure23(lab, workload)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (time to completion).
func BenchmarkTable2(b *testing.B) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (chunk-size sweep, DQ) with a
// reduced sweep to keep benchmark iterations affordable.
func BenchmarkFigure6(b *testing.B) {
	benchSweep(b, "DQ")
}

// BenchmarkFigure7 regenerates Figure 7 (chunk-size sweep, SQ).
func BenchmarkFigure7(b *testing.B) {
	benchSweep(b, "SQ")
}

func benchSweep(b *testing.B, workload string) {
	lab := getBenchLab(b)
	sizes := experiments.ChunkSizeSweep(6, 100, 100000, lab.Coll.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure67(lab, workload, sizes, []int{1, 10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTimeBAG measures BAG clustering construction — the
// paper's "almost 12 days" side of the build asymmetry (§5.2).
func BenchmarkBuildTimeBAG(b *testing.B) {
	coll := GenerateCollection(5000, 3)
	cfg := bag.DefaultConfig(coll.Len(), 150)
	cfg.MaxPasses = 500
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bag.Run(coll, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTimeSR measures SR-tree bulk-load construction — the
// "about three hours" side (§5.2) — on the same collection as the BAG
// benchmark for a direct ratio.
func BenchmarkBuildTimeSR(b *testing.B) {
	coll := GenerateCollection(5000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srtree.Chunks(coll, nil, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparators regenerates the related-work comparison table.
func BenchmarkComparators(b *testing.B) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Comparators(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOverlap regenerates the overlap-vs-serial ablation.
func BenchmarkAblationOverlap(b *testing.B) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOverlap(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStrategies regenerates the four-strategy ablation.
func BenchmarkAblationStrategies(b *testing.B) {
	lab := getBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStrategies(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleQueryCompletion measures one exact chunk search on the
// shared SMALL SR index.
func BenchmarkSingleQueryCompletion(b *testing.B) {
	lab := getBenchLab(b)
	idx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := lab.Coll.Vec(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(q, SearchOptions{K: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleQuerySteadyState measures the zero-allocation serving
// path: one exact search per iteration through SearchInto with a recycled
// Result. After warm-up this must report 0 allocs/op.
func BenchmarkSingleQuerySteadyState(b *testing.B) {
	lab := getBenchLab(b)
	idx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := lab.Coll.Vec(17)
	var res Result
	if err := idx.SearchInto(q, SearchOptions{K: 30}, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.SearchInto(q, SearchOptions{K: 30}, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleQueryBudget5 measures one 5-chunk approximate search.
func BenchmarkSingleQueryBudget5(b *testing.B) {
	lab := getBenchLab(b)
	idx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := lab.Coll.Vec(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(q, SearchOptions{K: 30, MaxChunks: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchBatchInto measures the chunk-major batch engine on a
// 200-query workload with the caller-owned result arena — the
// zero-allocation steady-state batch path. After warm-up this must
// report 0 allocs/op.
func BenchmarkSearchBatchInto(b *testing.B) {
	lab := getBenchLab(b)
	idx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := DatasetQueries(lab.Coll, 200, 43)
	if err != nil {
		b.Fatal(err)
	}
	opts := BatchOptions{SearchOptions: SearchOptions{K: 30, MaxChunks: 5}}
	results := make([]Result, len(queries))
	if err := idx.SearchBatchInto(queries, opts, results); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.SearchBatchInto(queries, opts, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSearch measures a whole-image multi-descriptor query (a
// 50-descriptor bag, the §7 follow-up) over the batch engine.
func BenchmarkMultiSearch(b *testing.B) {
	lab := getBenchLab(b)
	idx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 1)
	if err != nil {
		b.Fatal(err)
	}
	bag := make([]Vector, 50)
	for i := range bag {
		bag[i] = lab.Coll.Vec(i * 31)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.MultiSearch(bag, MultiSearchOptions{K: 10, MaxChunks: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedBatchInto measures the sharded batch path on a 4-shard
// index: the 200-query workload runs on the fleet's chunk-major engine,
// per-shard budget 5.
func BenchmarkShardedBatchInto(b *testing.B) {
	lab := getBenchLab(b)
	sx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer sx.Close()
	queries, err := DatasetQueries(lab.Coll, 200, 43)
	if err != nil {
		b.Fatal(err)
	}
	opts := BatchOptions{SearchOptions: SearchOptions{K: 30, MaxChunks: 5}}
	results := make([]Result, len(queries))
	if err := sx.SearchBatchInto(queries, opts, results); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sx.SearchBatchInto(queries, opts, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedSingleQuery measures one run-to-completion query
// walking a 4-shard index.
func BenchmarkShardedSingleQuery(b *testing.B) {
	lab := getBenchLab(b)
	sx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer sx.Close()
	q := lab.Coll.Vec(17)
	var res Result
	if err := sx.SearchInto(q, SearchOptions{K: 30}, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sx.SearchInto(q, SearchOptions{K: 30}, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedGlobalBatchInto measures the global-budget batch path
// on a 4-shard index: the 200-query workload runs on the merged global
// chunk order with a total budget of 20 chunks per query — the same
// chunk bill as BenchmarkShardedBatchInto's per-shard budget 5, spent on
// the globally best-ranked chunks instead.
func BenchmarkShardedGlobalBatchInto(b *testing.B) {
	lab := getBenchLab(b)
	sx, err := BuildSharded(lab.Coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 300}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer sx.Close()
	queries, err := DatasetQueries(lab.Coll, 200, 43)
	if err != nil {
		b.Fatal(err)
	}
	opts := BatchOptions{SearchOptions: SearchOptions{K: 30, MaxChunks: 20, GlobalBudget: true}}
	results := make([]Result, len(queries))
	if err := sx.SearchBatchInto(queries, opts, results); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sx.SearchBatchInto(queries, opts, results); err != nil {
			b.Fatal(err)
		}
	}
}
