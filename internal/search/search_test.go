package search_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/chunkfile"
	"repro/internal/descriptor"
	"repro/internal/imagegen"
	"repro/internal/race"
	"repro/internal/scan"
	. "repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/srtree"
	"repro/internal/vafile"
	"repro/internal/vec"
)

// fixture builds a small collection with two chunk stores: SR-tree chunks
// and BAG chunks, as in the paper. tieSt holds every SR-tree chunk twice
// (chunk i again at i+n), so every centroid distance is a tie.
type fixture struct {
	coll  *descriptor.Collection
	srSt  *chunkfile.MemStore
	bagSt *chunkfile.MemStore
	tieSt *chunkfile.MemStore
}

var fixtures = map[int64]*fixture{}

func getFixture(t testing.TB, seed int64) *fixture {
	if f, ok := fixtures[seed]; ok {
		return f
	}
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(6000, seed))
	coll := ds.Collection
	chunks, err := srtree.Chunks(coll, nil, 120)
	if err != nil {
		t.Fatal(err)
	}
	srSt := chunkfile.NewMemStore(coll, chunks)
	tieSt := chunkfile.NewMemStore(coll, append(chunks, chunks...))

	cfg := bag.DefaultConfig(coll.Len(), 120)
	cfg.MaxPasses = 500
	snaps, err := bag.Run(coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[len(snaps)-1]
	// The BAG store indexes only the retained descriptors; for exactness
	// tests we compare against a scan over the retained subset.
	bagSt := chunkfile.NewMemStore(coll, snap.Clusters)

	f := &fixture{coll: coll, srSt: srSt, bagSt: bagSt, tieSt: tieSt}
	fixtures[seed] = f
	return f
}

// searchOne runs q on the engine as a batch of one — the way every point
// query executes.
func searchOne(eng *batchexec.Engine, q vec.Vector, opts batchexec.Options) (*Result, error) {
	res := make([]Result, 1)
	if err := eng.Run([]vec.Vector{q}, opts, res); err != nil {
		return nil, err
	}
	return &res[0], nil
}

// retainedSubset returns a collection holding exactly the descriptors
// reachable through the store.
func retainedSubset(t testing.TB, coll *descriptor.Collection, st chunkfile.Store) *descriptor.Collection {
	t.Helper()
	keep := map[descriptor.ID]bool{}
	var data chunkfile.Data
	for i := range st.Meta() {
		if err := st.ReadChunk(i, &data); err != nil {
			t.Fatal(err)
		}
		for _, id := range data.IDs {
			keep[id] = true
		}
	}
	sub := descriptor.NewCollection(coll.Dims(), len(keep))
	for i := 0; i < coll.Len(); i++ {
		if keep[coll.IDAt(i)] {
			sub.Append(coll.IDAt(i), coll.Vec(i))
		}
	}
	return sub
}

// The approximation quality must be monotone: the number of true neighbors
// found can only grow as more chunks are processed.
func TestNeighborsFoundMonotone(t *testing.T) {
	f := getFixture(t, 31)
	sub := retainedSubset(t, f.coll, f.bagSt)
	s := batchexec.New(f.bagSt)
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		q := f.coll.Vec(r.Intn(f.coll.Len()))
		truth := scan.Compute(sub, []vec.Vector{q}, 30)
		prev := -1
		_, err := searchOne(s, q, batchexec.Options{K: 30, Stop: ToCompletion{}, Trace: func(_ int, ev Event) {
			found := truth.Found(0, ev.Neighbors)
			if found < prev {
				t.Fatalf("neighbors found dropped from %d to %d at chunk %d", prev, found, ev.Ordinal)
			}
			prev = found
		}})
		if err != nil {
			t.Fatal(err)
		}
		if prev != 30 {
			t.Fatalf("completion found %d/30 true neighbors", prev)
		}
	}
}

func TestTraceEvents(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt)
	var ordinals []int
	var elapsed []time.Duration
	res, err := searchOne(s, f.coll.Vec(9), batchexec.Options{K: 10, Stop: ChunkBudget(5), Trace: func(_ int, ev Event) {
		ordinals = append(ordinals, ev.Ordinal)
		elapsed = append(elapsed, ev.Elapsed)
		if ev.ChunkCount <= 0 {
			t.Fatalf("event with non-positive chunk count: %+v", ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordinals) != res.ChunksRead {
		t.Fatalf("%d events for %d chunks", len(ordinals), res.ChunksRead)
	}
	for i := range ordinals {
		if ordinals[i] != i+1 {
			t.Fatalf("ordinal %d at position %d", ordinals[i], i)
		}
		if i > 0 && elapsed[i] <= elapsed[i-1] {
			t.Fatalf("elapsed not increasing at event %d", i)
		}
	}
}

func TestDimsMismatch(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt)
	if _, err := searchOne(s, vec.Vector{1, 2, 3}, batchexec.Options{}); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

func BenchmarkSearchCompletion(b *testing.B) {
	f := getFixture(b, 31)
	s := batchexec.New(f.srSt)
	q := f.coll.Vec(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searchOne(s, q, batchexec.Options{K: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBudget5(b *testing.B) {
	f := getFixture(b, 31)
	s := batchexec.New(f.srSt)
	q := f.coll.Vec(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searchOne(s, q, batchexec.Options{K: 30, Stop: ChunkBudget(5)}); err != nil {
			b.Fatal(err)
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
	f := getFixture(t, 31)
	eng := batchexec.New(f.srSt)
	queries := []vec.Vector{f.coll.Vec(42)}
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

// Three independently implemented exact searches — chunk search to
// completion, the sequential scan, and the two-phase VA-File — must
// agree on every query. Any pairwise disagreement localizes a bug to one
// implementation.
func TestThreeWayExactCrossCheck(t *testing.T) {
	f := getFixture(t, 31)
	coll := f.coll
	chunkSearch := batchexec.New(f.srSt)

	va, err := vafile.Build(coll, 5)
	if err != nil {
		t.Fatal(err)
	}

	const k = 25
	for _, qi := range []int{0, 9, 500, 1234, 4000} {
		q := coll.Vec(qi)

		a, err := searchOne(chunkSearch, q, batchexec.Options{K: k, Stop: ToCompletion{}})
		if err != nil {
			t.Fatal(err)
		}
		b := scan.KNN(coll, q, k)
		c, _, err := va.Search(q, k, vafile.Options{})
		if err != nil {
			t.Fatal(err)
		}

		if len(a.Neighbors) != k || len(b) != k || len(c) != k {
			t.Fatalf("q%d: result sizes %d/%d/%d", qi, len(a.Neighbors), len(b), len(c))
		}
		for i := 0; i < k; i++ {
			if math.Abs(a.Neighbors[i].Dist-b[i].Dist) > 1e-9 {
				t.Fatalf("q%d rank %d: chunk search %v vs scan %v", qi, i, a.Neighbors[i].Dist, b[i].Dist)
			}
			if math.Abs(a.Neighbors[i].Dist-c[i].Dist) > 1e-9 {
				t.Fatalf("q%d rank %d: chunk search %v vs va-file %v", qi, i, a.Neighbors[i].Dist, c[i].Dist)
			}
		}
	}
}
