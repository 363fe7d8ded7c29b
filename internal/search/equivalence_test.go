package search

import (
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/race"
	"repro/internal/scan"
	"repro/internal/srtree"
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

	tree, err := srtree.Build(coll, nil, 120, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(coll, tree.Chunks(), 4096)
	searcher := New(store, nil)

	const k = 30
	for _, qi := range []int{0, 7, 123, 999, 2048, 3999} {
		q := coll.Vec(qi)
		res, err := searcher.Search(q, Options{K: k, Stop: ToCompletion{}})
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
// the steady-state path: recycling one Result across queries performs no
// allocations once warm.
func TestSearchIntoReusesBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector makes sync.Pool drop the scratch")
	}
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(3000, 5))
	coll := ds.Collection
	tree, err := srtree.Build(coll, nil, 150, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(coll, tree.Chunks(), 4096)
	searcher := New(store, nil)

	var res Result
	q := coll.Vec(42)
	// Warm up: fills pool scratch and the neighbor buffer.
	if err := searcher.SearchInto(q, Options{K: 20}, &res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := searcher.SearchInto(q, Options{K: 20}, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SearchInto allocates %v per query, want 0", allocs)
	}
	if len(res.Neighbors) != 20 {
		t.Fatalf("neighbors = %d", len(res.Neighbors))
	}
}
