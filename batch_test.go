package repro

import (
	"sync"
	"testing"

	"repro/internal/race"
)

// TestFileStoreConcurrentBatch locks in the concurrency contract of
// chunkfile.Store: the chunk-major batch engine issues ReadChunk calls
// from many worker goroutines against one FileStore, and several batches
// may run against the same index at once. Run under -race in CI, this
// pins FileStore's positioned reads (and the engine's disjoint-state
// rounds) as data-race free — and every concurrent batch must still
// return byte-identical results.
func TestFileStoreConcurrentBatch(t *testing.T) {
	dir := t.TempDir()
	coll := GenerateCollection(5000, 11)
	built, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 150}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	queries, err := DatasetQueries(coll, 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := BatchOptions{SearchOptions: SearchOptions{K: 10, MaxChunks: 4}, Parallelism: 4}
	want := make([]Result, len(queries))
	if err := opened.SearchBatchInto(queries, opts, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := make([]Result, len(queries))
				if err := opened.SearchBatchInto(queries, opts, got); err != nil {
					t.Errorf("concurrent batch: %v", err)
					return
				}
				for qi := range want {
					if len(got[qi].Neighbors) != len(want[qi].Neighbors) ||
						got[qi].ChunksRead != want[qi].ChunksRead ||
						got[qi].Simulated != want[qi].Simulated {
						t.Errorf("q%d: concurrent batch diverged", qi)
						return
					}
					for i := range want[qi].Neighbors {
						if got[qi].Neighbors[i] != want[qi].Neighbors[i] {
							t.Errorf("q%d rank %d: concurrent batch diverged", qi, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSearchBatchIntoZeroAlloc pins the zero-allocation contract of the
// facade on one and four shards, under both budget disciplines:
// recycling one Result across single queries (SearchInto) and one results
// array across batches (SearchBatchInto) performs no allocations per call
// in steady state.
func TestSearchBatchIntoZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	coll := GenerateCollection(6000, 22)
	queries, err := DatasetQueries(coll, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		idx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200}, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		for _, global := range []bool{false, true} {
			opts := SearchOptions{K: 15, MaxChunks: 5, GlobalBudget: global}
			var res Result
			search := func() {
				if err := idx.SearchInto(queries[0], opts, &res); err != nil {
					t.Fatal(err)
				}
			}
			results := make([]Result, len(queries))
			batch := func() {
				if err := idx.SearchBatchInto(queries, BatchOptions{SearchOptions: opts}, results); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ { // warm up pools, arenas and neighbor slices
				search()
				batch()
			}
			if allocs := testing.AllocsPerRun(50, search); allocs != 0 {
				t.Errorf("%d shards, global %v: steady-state SearchInto allocates %v per query, want 0", shards, global, allocs)
			}
			if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
				t.Errorf("%d shards, global %v: steady-state SearchBatchInto allocates %v per batch, want 0", shards, global, allocs)
			}
			if len(res.Neighbors) != 15 || len(results[0].Neighbors) != 15 {
				t.Fatalf("neighbors = %d / %d", len(res.Neighbors), len(results[0].Neighbors))
			}
		}
	}
}
