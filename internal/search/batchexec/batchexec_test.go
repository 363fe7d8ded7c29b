package batchexec

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/race"
	"repro/internal/search"
	"repro/internal/srtree"
	"repro/internal/vec"
)

// buildStores returns the same chunk index as a MemStore and a FileStore,
// so every equivalence below is pinned on both backends.
func buildStores(t testing.TB) (*chunkfile.MemStore, *chunkfile.FileStore, []vec.Vector) {
	t.Helper()
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(5000, 17))
	coll := ds.Collection
	tree, err := srtree.Build(coll, nil, 160, 16)
	if err != nil {
		t.Fatal(err)
	}
	mem := chunkfile.NewMemStore(coll, tree.Chunks(), 4096)

	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "b.chunk"), filepath.Join(dir, "b.idx")
	if err := chunkfile.Write(coll, tree.Chunks(), cp, ip, 4096); err != nil {
		t.Fatal(err)
	}
	file, err := chunkfile.Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })

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
	return mem, file, queries
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

// TestBatchMatchesSingleQuery is the engine's core contract: a query's
// outcome does not depend on which queries share its run. A batch of N is
// byte-identical to N batches of one — same neighbor IDs and bit-identical
// distances (ties included), same ChunksRead, same simulated time and
// IndexRead, same Exact flag — for all three stop rules, on both store
// backends, at every parallelism.
func TestBatchMatchesSingleQuery(t *testing.T) {
	mem, file, queries := buildStores(t)
	stops := []search.StopRule{
		search.ChunkBudget(3),
		search.TimeBudget(250 * time.Millisecond),
		search.ToCompletion{},
	}
	stores := []struct {
		name  string
		store chunkfile.Store
	}{{"mem", mem}, {"file", file}}

	for _, sc := range stores {
		eng := New(sc.store, nil)
		for _, stop := range stops {
			opts := Options{K: 20, Stop: stop, Overlap: true}
			want := runEach(t, eng, queries, opts)
			for _, par := range []int{1, 0} {
				opts.Parallelism = par
				results := make([]search.Result, len(queries))
				if err := eng.Run(queries, opts, results); err != nil {
					t.Fatalf("%s/%v/p%d: %v", sc.name, stop, par, err)
				}
				for qi := range queries {
					if d := diff(&results[qi], &want[qi]); d != "" {
						t.Fatalf("%s/%v/p%d q%d: %s", sc.name, stop, par, qi, d)
					}
				}
			}
		}
	}
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
	mem, _, queries := buildStores(t)
	eng := New(mem, nil)
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

// TestBatchExactUnderfilledHeap pins the edge where the stop rule fires
// on the very last ranked chunk while the heap is still under-filled (K
// exceeds the store's descriptor count): both Kth and the suffix bound
// are +Inf, so the certificate comparison alone says false, but the
// result is Exact because every chunk was processed — alone and in a
// batch alike.
func TestBatchExactUnderfilledHeap(t *testing.T) {
	mem, _, queries := buildStores(t)
	nchunks := len(mem.Meta())
	total := 0
	for _, m := range mem.Meta() {
		total += m.Count
	}
	k := total + 10 // heap can never fill
	eng := New(mem, nil)
	opts := Options{K: k, Stop: search.ChunkBudget(nchunks)} // Done fires exactly on the last chunk
	results := make([]search.Result, len(queries))
	if err := eng.Run(queries, opts, results); err != nil {
		t.Fatal(err)
	}
	for qi, want := range runEach(t, eng, queries, opts) {
		if !want.Exact {
			t.Fatalf("q%d: query alone not exact (%d chunks)", qi, want.ChunksRead)
		}
		if d := diff(&results[qi], &want); d != "" {
			t.Fatalf("q%d: %s", qi, d)
		}
	}
}

// TestBatchQueryError verifies a bad query fails the whole batch with a
// QueryError naming the offending query.
func TestBatchQueryError(t *testing.T) {
	mem, _, queries := buildStores(t)
	eng := New(mem, nil)
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
	mem, _, queries := buildStores(t)
	eng := New(mem, nil)
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

// TestBatchShardMapping pins the store-reported machine layout
// (chunkfile.MachineLayout) on the engine: a layout onto one machine is
// byte-identical to a store without one, a three-machine layout moves
// time but never neighbors or ChunksRead and is byte-identical to batches
// of one over the same store (whose Simulated the walk's own test replays
// by hand), and a malformed layout is rejected.
func TestBatchShardMapping(t *testing.T) {
	mem, _, queries := buildStores(t)
	metas := mem.Meta()
	queries = queries[:12]
	opts := Options{K: 10, Stop: search.ChunkBudget(6), GlobalBudget: true}
	run := func(store chunkfile.Store) ([]search.Result, error) {
		res := make([]search.Result, len(queries))
		return res, New(store, nil).Run(queries, opts, res)
	}
	base, err := run(mem)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(layoutStore{mem, make([]int32, len(metas)), 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range got {
		if d := diff(&got[qi], &base[qi]); d != "" {
			t.Fatalf("1-machine layout q%d: %s", qi, d)
		}
	}

	const machines = 3
	mapping := make([]int32, len(metas))
	for i := range mapping {
		mapping[i] = int32(i % machines)
	}
	three := layoutStore{mem, mapping, machines}
	if got, err = run(three); err != nil {
		t.Fatal(err)
	}
	for qi, want := range runEach(t, New(three, nil), queries, opts) {
		if d := diff(&got[qi], &want); d != "" {
			t.Fatalf("3-machine layout q%d vs batch of one: %s", qi, d)
		}
		if !slices.Equal(got[qi].PerMachine, want.PerMachine) || len(want.PerMachine) != machines {
			t.Fatalf("q%d: PerMachine %+v != %+v", qi, got[qi].PerMachine, want.PerMachine)
		}
		if got[qi].ChunksRead != base[qi].ChunksRead || !slices.Equal(got[qi].Neighbors, base[qi].Neighbors) {
			t.Fatalf("q%d: the layout moved more than time", qi)
		}
	}

	bad := make([]int32, len(metas))
	bad[0] = machines
	for name, store := range map[string]layoutStore{
		"short mapping":        {mem, make([]int32, 1), 1},
		"machine out of range": {mem, bad, machines},
		"negative machine":     {mem, append([]int32{-1}, bad[1:]...), machines},
	} {
		if _, err := run(store); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
