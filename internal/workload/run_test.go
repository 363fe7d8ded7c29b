package workload

import (
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/srtree"
)

// TestRunMatchesPerQuery: a workload run as one batch returns exactly the
// per-query results (each query a batch of one), and Summarize folds
// them.
func TestRunMatchesPerQuery(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(3000, 31))
	coll := ds.Collection
	tree, err := srtree.Build(coll, nil, 120, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(coll, tree.Chunks(), 4096)
	queries, err := DQ(coll, 16, 9)
	if err != nil {
		t.Fatal(err)
	}

	eng := batchexec.New(store, nil)
	results := make([]search.Result, len(queries))
	opts := batchexec.Options{K: 10, Stop: search.ChunkBudget(3)}
	if err := eng.Run(queries, opts, results); err != nil {
		t.Fatal(err)
	}

	st := Summarize(results)
	if st.Queries != len(queries) {
		t.Fatalf("Queries = %d", st.Queries)
	}
	var chunks int
	want := make([]search.Result, 1)
	for qi := range queries {
		if err := eng.Run(queries[qi:qi+1], opts, want); err != nil {
			t.Fatal(err)
		}
		chunks += want[0].ChunksRead
		if results[qi].Elapsed != want[0].Elapsed || results[qi].ChunksRead != want[0].ChunksRead {
			t.Fatalf("q%d: batch (%v, %d) != per-query (%v, %d)",
				qi, results[qi].Elapsed, results[qi].ChunksRead, want[0].Elapsed, want[0].ChunksRead)
		}
		for i := range want[0].Neighbors {
			if results[qi].Neighbors[i] != want[0].Neighbors[i] {
				t.Fatalf("q%d rank %d: neighbors diverge", qi, i)
			}
		}
	}
	if st.ChunksRead != chunks {
		t.Fatalf("Summarize chunks %d != %d", st.ChunksRead, chunks)
	}
	if st.MeanChunks() != float64(chunks)/float64(len(queries)) {
		t.Fatalf("MeanChunks = %v", st.MeanChunks())
	}
	if st.Exact != 0 && st.Exact > len(queries) {
		t.Fatalf("Exact = %d", st.Exact)
	}
}
