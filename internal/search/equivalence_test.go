package search_test

import (
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/race"
	"repro/internal/scan"
	. "repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/srtree"
	"repro/internal/vec"
)

// TestCompletionMatchesScanOracle pins the strongest equivalence the
// kernel overhaul must preserve: exact (ToCompletion) chunk search
// returns byte-identical neighbor sets to the sequential-scan oracle —
// same IDs, same order (ties included), bit-identical distances. This
// holds because every backend computes squared distances through the
// shared vec kernels and breaks distance ties by ascending ID.
func TestCompletionMatchesScanOracle(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(4000, 99))
	coll := ds.Collection

	chunks, err := srtree.Chunks(coll, nil, 120)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(coll, chunks, 4096)
	searcher := batchexec.New(store, nil)

	const k = 30
	for _, qi := range []int{0, 7, 123, 999, 2048, 3999} {
		q := coll.Vec(qi)
		res, err := searchOne(searcher, q, batchexec.Options{K: k, Stop: ToCompletion{}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("q%d: completion search not flagged exact", qi)
		}
		truth := scan.KNN(coll, q, k)
		if len(res.Neighbors) != len(truth) {
			t.Fatalf("q%d: %d neighbors vs oracle %d", qi, len(res.Neighbors), len(truth))
		}
		for i := range truth {
			if res.Neighbors[i] != truth[i] {
				t.Fatalf("q%d rank %d: chunk search %+v != oracle %+v",
					qi, i, res.Neighbors[i], truth[i])
			}
		}
	}
}

// TestSearchIntoReusesBuffers verifies the zero-allocation contract of
// the steady-state point query: a batch of one, recycling its query and
// Result slices across runs, performs no allocations once warm.
func TestSearchIntoReusesBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(3000, 5))
	coll := ds.Collection
	chunks, err := srtree.Chunks(coll, nil, 150)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(coll, chunks, 4096)
	eng := batchexec.New(store, nil)

	queries := []vec.Vector{coll.Vec(42)}
	res := make([]Result, 1)
	opts := batchexec.Options{K: 20}
	// Warm up: grows the arena, the walk scratch and the neighbor buffer.
	if err := eng.Run(queries, opts, res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := eng.Run(queries, opts, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state point query allocates %v per query, want 0", allocs)
	}
	if len(res[0].Neighbors) != 20 {
		t.Fatalf("neighbors = %d", len(res[0].Neighbors))
	}
}
