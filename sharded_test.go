package repro

import (
	"fmt"
	"os"
	"slices"
	"testing"
	"time"
)

// compareResults fails unless got and want agree on everything the
// byte-identity contract pins: IDs, distances, ChunksRead, Simulated and
// Exact (Wall is real time and exempt).
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.ChunksRead != want.ChunksRead || got.Simulated != want.Simulated || got.Exact != want.Exact {
		t.Fatalf("%s: (chunks %d, sim %v, exact %v) != (chunks %d, sim %v, exact %v)",
			label, got.ChunksRead, got.Simulated, got.Exact, want.ChunksRead, want.Simulated, want.Exact)
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbors != %d", label, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Fatalf("%s rank %d: %+v != %+v", label, i, got.Neighbors[i], want.Neighbors[i])
		}
	}
}

// TestShardedIndexCompletionIsExact pins the facade's global-exactness
// claim at S=4: a run-to-completion sharded search equals the scan oracle.
func TestShardedIndexCompletionIsExact(t *testing.T) {
	coll := GenerateCollection(5000, 53)
	sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for _, qi := range []int{3, 444, 4999} {
		q := coll.Vec(qi)
		res, err := sx.Search(q, SearchOptions{K: 30})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("q%d: completion not exact", qi)
		}
		truth := Exact(coll, q, 30)
		if len(res.Neighbors) != len(truth) {
			t.Fatalf("q%d: %d neighbors vs oracle %d", qi, len(res.Neighbors), len(truth))
		}
		for i := range truth {
			if res.Neighbors[i] != truth[i] {
				t.Fatalf("q%d rank %d: %+v != oracle %+v", qi, i, res.Neighbors[i], truth[i])
			}
		}
	}
}

// TestShardedIndexSaveOpenRoundTrip pins the on-disk story on several
// shards: an index reopened from its directory serves byte-identical
// results — IDs, distances, ChunksRead, Simulated, Exact — at every stop
// rule.
func TestShardedIndexSaveOpenRoundTrip(t *testing.T) {
	checkSaveOpenRoundTrip(t, 3, 2048)
}

// TestSaveOpenRoundTrip pins the single-machine layout: a one-shard
// directory is exactly the paper's chunk file + index file plus the
// manifest, and reopens to byte-identical results.
func TestSaveOpenRoundTrip(t *testing.T) {
	checkSaveOpenRoundTrip(t, 1, 0)
}

// TestSaveHonorsBuildPageSize pins that Save writes at the build page
// size: chunk padding feeds the cost model's transfer term, so a reopened
// index built at a non-default page size keeps byte-identical Simulated.
func TestSaveHonorsBuildPageSize(t *testing.T) {
	for _, pageSize := range []int{2048, 16384} {
		checkSaveOpenRoundTrip(t, 1, pageSize)
	}
}

func checkSaveOpenRoundTrip(t *testing.T, shards, pageSize int) {
	t.Helper()
	coll := GenerateCollection(4000, 57)
	sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 180, PageSize: pageSize}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	if shards == 1 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"manifest", "shard-0.chunk", "shard-0.idx"}; !slices.Equal(names, want) {
			t.Fatalf("one-shard directory holds %v, want %v", names, want)
		}
	}
	fx, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	if fx.Shards() != shards || fx.Chunks() != sx.Chunks() || fx.Len() != sx.Len() {
		t.Fatalf("S=%d page %d reopened shape: shards=%d chunks=%d/%d len=%d/%d",
			shards, pageSize, fx.Shards(), fx.Chunks(), sx.Chunks(), fx.Len(), sx.Len())
	}
	for _, opts := range []SearchOptions{{K: 15}, {K: 15, MaxChunks: 2}, {K: 15, MaxTime: 80 * time.Millisecond}} {
		for _, qi := range []int{9, 876, 3999} {
			q := coll.Vec(qi)
			want, err := sx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, fmt.Sprintf("S=%d page %d roundtrip", shards, pageSize), got, want)
		}
	}

	// Only built indexes can be saved.
	if err := fx.Save(t.TempDir()); err == nil {
		t.Fatal("saving a file-opened index succeeded")
	}
}

// TestShardedIndexGlobalBudget pins the facade's GlobalBudget option:
// on S shards a global MaxChunks budget reads exactly that many chunks
// in total, its MaxReads, and returns the one-shard index's neighbors at
// the same budget (the closed S× gap); on 1 shard the global discipline is
// byte-identical to the per-shard one including Simulated; the batch and
// multi-descriptor paths agree with the single-query path.
func TestShardedIndexGlobalBudget(t *testing.T) {
	coll := GenerateCollection(6000, 61)
	cfg := BuildConfig{Strategy: StrategySRTree, ChunkSize: 250}
	sx, err := BuildSharded(coll, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	one, err := BuildSharded(coll, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()

	// Matched total budget: global on 4 shards reads exactly B chunks and
	// matches the one-shard neighbors; per-shard at the same per-shard
	// budget reads 4× the chunks.
	for _, budget := range []int{2, 5, 12} {
		for _, qi := range []int{9, 640, 5999} {
			q := coll.Vec(qi)
			want, err := one.Search(q, SearchOptions{K: 20, MaxChunks: budget})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sx.Search(q, SearchOptions{K: 20, MaxChunks: budget, GlobalBudget: true})
			if err != nil {
				t.Fatal(err)
			}
			if bound := sx.MaxReads(SearchOptions{MaxChunks: budget, GlobalBudget: true}); got.ChunksRead != budget || bound != budget {
				t.Fatalf("global budget %d q%d: ChunksRead %d, MaxReads %d", budget, qi, got.ChunksRead, bound)
			}
			if len(got.Neighbors) != len(want.Neighbors) {
				t.Fatalf("global budget %d q%d: %d neighbors != %d", budget, qi, len(got.Neighbors), len(want.Neighbors))
			}
			for i := range want.Neighbors {
				if got.Neighbors[i] != want.Neighbors[i] {
					t.Fatalf("global budget %d q%d rank %d: %+v != one-shard %+v",
						budget, qi, i, got.Neighbors[i], want.Neighbors[i])
				}
			}
			if budget <= 5 { // small enough that no shard runs out of chunks
				perShard, err := sx.Search(q, SearchOptions{K: 20, MaxChunks: budget})
				if err != nil {
					t.Fatal(err)
				}
				if perShard.ChunksRead != 4*budget {
					t.Fatalf("per-shard budget %d q%d: ChunksRead %d != %d", budget, qi, perShard.ChunksRead, 4*budget)
				}
			}
		}
	}

	// Global completion is exact and equals the oracle.
	res, err := sx.Search(coll.Vec(777), SearchOptions{K: 25, GlobalBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("global completion not exact")
	}
	truth := Exact(coll, coll.Vec(777), 25)
	for i := range truth {
		if res.Neighbors[i] != truth[i] {
			t.Fatalf("global completion rank %d: %+v != oracle %+v", i, res.Neighbors[i], truth[i])
		}
	}

	// One shard: GlobalBudget is byte-identical to the per-shard
	// discipline, Simulated included, under all three stop rules.
	for _, opts := range []SearchOptions{
		{K: 20, GlobalBudget: true},
		{K: 20, MaxChunks: 4, GlobalBudget: true},
		{K: 20, MaxTime: 80 * time.Millisecond, GlobalBudget: true},
	} {
		plain := opts
		plain.GlobalBudget = false
		for _, qi := range []int{17, 999} {
			q := coll.Vec(qi)
			want, err := one.Search(q, plain)
			if err != nil {
				t.Fatal(err)
			}
			got, err := one.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, "1-shard global", got, want)
		}
	}

	// Batch path: byte-identical to the single-query global path.
	queries, err := DatasetQueries(coll, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{K: 20, MaxChunks: 6, GlobalBudget: true}
	batch := make([]Result, len(queries))
	if err := sx.SearchBatchInto(queries, BatchOptions{SearchOptions: opts}, batch); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, err := sx.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "global batch", &batch[qi], want)
	}

	// Multi-descriptor global budget: the per-descriptor global searches
	// read the same chunks the one-shard index would, so image scores and
	// chunk totals match the one-shard MultiSearch.
	mbag := make([]Vector, 20)
	for i := range mbag {
		mbag[i] = coll.Vec(i * 131)
	}
	wantMulti, err := one.MultiSearch(mbag, MultiSearchOptions{K: 8, MaxChunks: 3, RankWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	gotMulti, err := sx.MultiSearch(mbag, MultiSearchOptions{K: 8, MaxChunks: 3, RankWeighted: true, GlobalBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMulti.Images) != len(wantMulti.Images) || gotMulti.ChunksRead != wantMulti.ChunksRead {
		t.Fatalf("global multi: (%d images, chunks %d) != (%d, %d)",
			len(gotMulti.Images), gotMulti.ChunksRead, len(wantMulti.Images), wantMulti.ChunksRead)
	}
	for i := range wantMulti.Images {
		if gotMulti.Images[i] != wantMulti.Images[i] {
			t.Fatalf("global multi image %d: %+v != %+v", i, gotMulti.Images[i], wantMulti.Images[i])
		}
	}
}
