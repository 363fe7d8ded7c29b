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
// index: with CacheBytes set, an index — built in memory or reopened from
// disk — matches the cacheless one byte-identically on the per-shard and
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
	cfg.CacheBytes = 32 << 20
	built, err := BuildSharded(coll, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()

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

	for _, ix := range []struct {
		name string
		idx  *ShardedIndex
	}{{"built", built}, {"opened", opened}} {
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
						got, err := ix.idx.Search(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						identicalResult(t, ix.name+"/search", got, want)
					}
					bopts := BatchOptions{SearchOptions: opts}
					want := make([]Result, len(queries))
					got := make([]Result, len(queries))
					if err := plain.SearchBatchInto(queries, bopts, want); err != nil {
						t.Fatal(err)
					}
					if err := ix.idx.SearchBatchInto(queries, bopts, got); err != nil {
						t.Fatal(err)
					}
					for qi := range queries {
						identicalResult(t, ix.name+"/batch", &got[qi], &want[qi])
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
			gotM, err := ix.idx.MultiSearch(queries, mopts)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotM.Images) != len(wantM.Images) {
				t.Fatalf("%s/multi: %d images != %d", ix.name, len(gotM.Images), len(wantM.Images))
			}
			for i := range wantM.Images {
				if gotM.Images[i] != wantM.Images[i] {
					t.Fatalf("%s/multi rank %d: %+v != %+v", ix.name, i, gotM.Images[i], wantM.Images[i])
				}
			}
		}

		st := ix.idx.CacheStats()
		if !st.Enabled || st.Hits == 0 {
			t.Fatalf("%s: warm cache reports %+v", ix.name, st)
		}
	}

	if st := plain.CacheStats(); st.Enabled || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cacheless index reports %+v", st)
	}
}
