package batchexec

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/race"
	"repro/internal/search"
	"repro/internal/srtree"
	"repro/internal/vec"
)

// buildStore returns a chunk index as a MemStore and the queries the
// tests below run over it.
func buildStore(t testing.TB) (*chunkfile.MemStore, []vec.Vector) {
	t.Helper()
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(5000, 17))
	coll := ds.Collection
	chunks, err := srtree.Chunks(coll, nil, 160)
	if err != nil {
		t.Fatal(err)
	}
	mem := chunkfile.NewMemStore(coll, chunks)

	// 40 dataset queries (descriptors of the collection itself, so they
	// have close matches) plus 10 perturbed ones with no exact match.
	queries := make([]vec.Vector, 0, 50)
	for i := 0; i < 40; i++ {
		queries = append(queries, coll.Vec(i*117).Clone())
	}
	for i := 0; i < 10; i++ {
		q := coll.Vec(i*331 + 7).Clone()
		for d := range q {
			q[d] += float32(d%5) * 3.5
		}
		queries = append(queries, q)
	}
	return mem, queries
}

// runEach runs every query as its own batch of one — the way a point
// query executes.
func runEach(t testing.TB, eng *Engine, queries []vec.Vector, opts Options) []search.Result {
	t.Helper()
	out := make([]search.Result, len(queries))
	for qi := range queries {
		if err := eng.Run(queries[qi:qi+1], opts, out[qi:qi+1]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// diff names the first field in which got differs from want — neighbors
// (IDs and bit-identical distances), ChunksRead, Simulated, IndexRead,
// Exact — or returns "" when they are byte-identical.
func diff(got, want *search.Result) string {
	switch {
	case got.ChunksRead != want.ChunksRead:
		return fmt.Sprintf("ChunksRead %d != %d", got.ChunksRead, want.ChunksRead)
	case got.Simulated != want.Simulated:
		return fmt.Sprintf("Simulated %v != %v", got.Simulated, want.Simulated)
	case got.IndexRead != want.IndexRead:
		return fmt.Sprintf("IndexRead %v != %v", got.IndexRead, want.IndexRead)
	case got.Exact != want.Exact:
		return fmt.Sprintf("Exact %v != %v", got.Exact, want.Exact)
	case !slices.Equal(got.Neighbors, want.Neighbors):
		return fmt.Sprintf("neighbors %v != %v", got.Neighbors, want.Neighbors)
	}
	return ""
}

// TestBatchZeroAlloc pins the arena contract: recycling one results array
// across batches performs zero allocations per batch in steady state, on
// the inline and the pooled-parallel path, and for a point query — a
// batch of one — recycling its one result.
func TestBatchZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	mem, queries := buildStore(t)
	eng := New(mem)
	for _, row := range []struct{ n, par int }{{len(queries), 1}, {len(queries), 0}, {1, 0}} {
		batch := queries[:row.n]
		opts := Options{K: 20, Stop: search.ChunkBudget(4), Parallelism: row.par}
		results := make([]search.Result, row.n)
		// Warm up: grows the arena, worker scratches and neighbor slices.
		for i := 0; i < 3; i++ {
			if err := eng.Run(batch, opts, results); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := eng.Run(batch, opts, results); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%d queries at parallelism %d: steady-state batch allocates %v per run, want 0", row.n, row.par, allocs)
		}
	}
}

// TestBatchQueryError verifies a bad query fails the whole batch with a
// QueryError naming the offending query.
func TestBatchQueryError(t *testing.T) {
	mem, queries := buildStore(t)
	eng := New(mem)
	bad := make([]vec.Vector, len(queries))
	copy(bad, queries)
	bad[3] = make(vec.Vector, mem.Dims()+1)
	results := make([]search.Result, len(bad))
	err := eng.Run(bad, Options{K: 10}, results)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Query != 3 {
		t.Fatalf("want QueryError for query 3, got %v", err)
	}
}

// TestBatchEdges: empty batches are no-ops and mismatched results arrays
// are rejected.
func TestBatchEdges(t *testing.T) {
	mem, queries := buildStore(t)
	eng := New(mem)
	if err := eng.Run(nil, Options{}, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := eng.Run(queries, Options{}, make([]search.Result, 1)); err == nil {
		t.Fatal("mismatched results length accepted")
	}
}

// layoutStore reports a chunk→machine layout over any store, the way the
// shard router's concatenated global store does.
type layoutStore struct {
	chunkfile.Store
	owner    []int32
	machines int
}

func (s layoutStore) Layout() ([]int32, int) { return s.owner, s.machines }

// TestBatchShardMapping pins that the engine rejects a malformed
// store-reported machine layout (chunkfile.MachineLayout). How a
// well-formed one bills a walk is FuzzWalkPerMachine's and, over the shard
// router's layout, the root package's FuzzStackVsModel's.
func TestBatchShardMapping(t *testing.T) {
	mem, queries := buildStore(t)
	bad := make([]int32, len(mem.Meta()))
	bad[0] = 3
	for name, store := range map[string]layoutStore{
		"short mapping":        {mem, make([]int32, 1), 1},
		"machine out of range": {mem, bad, 3},
		"negative machine":     {mem, append([]int32{-1}, bad[1:]...), 3},
	} {
		if err := New(store).Run(queries[:1], Options{}, make([]search.Result, 1)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
