package repro

import (
	"testing"
	"time"
)

// cacheStopVariants returns SearchOptions exercising the paper's three
// stop rules.
func cacheStopVariants(k int) []SearchOptions {
	return []SearchOptions{
		{K: k},
		{K: k, MaxChunks: 3},
		{K: k, MaxTime: 80 * time.Millisecond},
	}
}

// identicalResult asserts two facade results are byte-identical: IDs,
// distances, chunk counts, and the simulated time the cache must never
// perturb (only Wall may differ).
func identicalResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.ChunksRead != want.ChunksRead || got.Simulated != want.Simulated ||
		got.Exact != want.Exact || got.Degraded != want.Degraded ||
		got.ChunksSkipped != want.ChunksSkipped {
		t.Fatalf("%s: (chunks %d, %v, exact %v) != uncached (chunks %d, %v, exact %v)",
			label, got.ChunksRead, got.Simulated, got.Exact,
			want.ChunksRead, want.Simulated, want.Exact)
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

// TestCacheEquivalenceUnsharded pins the cache guarantee on a one-shard
// index: reopened from disk with OpenConfig.CacheBytes set, an index
// matches the cacheless one byte-identically on the per-shard and
// global-budget disciplines, on single queries, batches, and
// multi-descriptor queries, under all three stop rules, cold and warm.
func TestCacheEquivalenceUnsharded(t *testing.T) {
	checkCacheEquivalence(t, 1)
}

// TestCacheEquivalenceSharded pins the same guarantee on a three-shard
// index.
func TestCacheEquivalenceSharded(t *testing.T) {
	checkCacheEquivalence(t, 3)
}

func checkCacheEquivalence(t *testing.T, shards int) {
	coll := testCollection(t)
	cfg := BuildConfig{Strategy: StrategySRTree, ChunkSize: 150}
	plain, err := BuildSharded(coll, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	dir := t.TempDir()
	if err := plain.Save(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenShardedWith(dir, OpenConfig{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	queries, err := DatasetQueries(coll, 6, 5)
	if err != nil {
		t.Fatal(err)
	}

	for _, base := range cacheStopVariants(15) {
		for _, global := range []bool{false, true} {
			opts := base
			opts.GlobalBudget = global
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					want, err := plain.Search(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := opened.Search(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					identicalResult(t, "search", got, want)
				}
				bopts := BatchOptions{SearchOptions: opts}
				want := make([]Result, len(queries))
				got := make([]Result, len(queries))
				if err := plain.SearchBatchInto(queries, bopts, want); err != nil {
					t.Fatal(err)
				}
				if err := opened.SearchBatchInto(queries, bopts, got); err != nil {
					t.Fatal(err)
				}
				for qi := range queries {
					identicalResult(t, "batch", &got[qi], &want[qi])
				}
			}
		}
	}

	for _, global := range []bool{false, true} {
		mopts := MultiSearchOptions{K: 10, MaxChunks: 3, GlobalBudget: global}
		wantM, err := plain.MultiSearch(queries, mopts)
		if err != nil {
			t.Fatal(err)
		}
		gotM, err := opened.MultiSearch(queries, mopts)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotM.Images) != len(wantM.Images) {
			t.Fatalf("multi: %d images != %d", len(gotM.Images), len(wantM.Images))
		}
		for i := range wantM.Images {
			if gotM.Images[i] != wantM.Images[i] {
				t.Fatalf("multi rank %d: %+v != %+v", i, gotM.Images[i], wantM.Images[i])
			}
		}
	}

	if st := opened.CacheStats(); !st.Enabled || st.Hits == 0 {
		t.Fatalf("warm cache reports %+v", st)
	}
	if st := plain.CacheStats(); st.Enabled || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cacheless index reports %+v", st)
	}
}
