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
	"repro/internal/scan"
	. "repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/simdisk"
	"repro/internal/srtree"
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
	srSt := chunkfile.NewMemStore(coll, chunks, 4096)
	tieSt := chunkfile.NewMemStore(coll, append(chunks, chunks...), 4096)

	cfg := bag.DefaultConfig(coll.Len(), 120)
	cfg.MaxPasses = 500
	snaps, err := bag.Run(coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[len(snaps)-1]
	// The BAG store indexes only the retained descriptors; for exactness
	// tests we compare against a scan over the retained subset.
	bagSt := chunkfile.NewMemStore(coll, snap.Clusters, 4096)

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

// The central correctness property: run-to-completion over the chunk
// architecture returns exactly the sequential-scan result (paper §4.3:
// "This ensures that all nearest-neighbors have been found").
func TestCompletionIsExact(t *testing.T) {
	f := getFixture(t, 31)
	r := rand.New(rand.NewSource(2))
	for name, st := range map[string]chunkfile.Store{"srtree": f.srSt, "bag": f.bagSt} {
		sub := retainedSubset(t, f.coll, st)
		s := batchexec.New(st, nil)
		for trial := 0; trial < 12; trial++ {
			var q vec.Vector
			if trial%2 == 0 {
				q = f.coll.Vec(r.Intn(f.coll.Len())) // DQ-style
			} else {
				q = make(vec.Vector, f.coll.Dims()) // SQ-style
				for d := range q {
					q[d] = float32(r.NormFloat64() * 120)
				}
			}
			res, err := searchOne(s, q, batchexec.Options{K: 20, Stop: ToCompletion{}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatalf("%s: completion search not marked exact", name)
			}
			want := scan.KNN(sub, q, 20)
			if len(res.Neighbors) != len(want) {
				t.Fatalf("%s: got %d neighbors, want %d", name, len(res.Neighbors), len(want))
			}
			for i := range want {
				if math.Abs(res.Neighbors[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%s trial %d: rank %d dist %v, scan %v",
						name, trial, i, res.Neighbors[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestChunkBudgetStops(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt, nil)
	q := f.coll.Vec(5)
	res, err := searchOne(s, q, batchexec.Options{K: 30, Stop: ChunkBudget(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRead != 3 {
		t.Fatalf("ChunksRead = %d, want 3", res.ChunksRead)
	}
}

func TestTimeBudgetStops(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt, nil)
	q := f.coll.Vec(5)
	full, err := searchOne(s, q, batchexec.Options{K: 30, Stop: ToCompletion{}})
	if err != nil {
		t.Fatal(err)
	}
	budget := full.IndexRead + 25*time.Millisecond
	res, err := searchOne(s, q, batchexec.Options{K: 30, Stop: TimeBudget(budget)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRead >= full.ChunksRead {
		t.Fatalf("time budget read %d chunks, completion read %d", res.ChunksRead, full.ChunksRead)
	}
	// The rule triggers after crossing the threshold, so elapsed may
	// exceed it by at most one chunk.
	if res.Simulated < budget {
		t.Fatalf("stopped before budget: %v < %v", res.Simulated, budget)
	}
}

// The approximation quality must be monotone: the number of true neighbors
// found can only grow as more chunks are processed.
func TestNeighborsFoundMonotone(t *testing.T) {
	f := getFixture(t, 31)
	sub := retainedSubset(t, f.coll, f.bagSt)
	s := batchexec.New(f.bagSt, nil)
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
	s := batchexec.New(f.srSt, nil)
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

// Chunks must be processed in increasing centroid-distance order.
func TestRankingOrder(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt, nil)
	q := f.coll.Vec(100)
	metas := f.srSt.Meta()
	var prev float64 = -1
	_, err := searchOne(s, q, batchexec.Options{K: 5, Stop: ToCompletion{}, Trace: func(_ int, ev Event) {
		d := vec.Distance(q, metas[ev.ChunkIndex].Centroid)
		if d < prev-1e-9 {
			t.Fatalf("chunk order violated: %v after %v", d, prev)
		}
		prev = d
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDimsMismatch(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt, nil)
	if _, err := searchOne(s, vec.Vector{1, 2, 3}, batchexec.Options{}); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

func TestDefaults(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt, nil)
	res, err := searchOne(s, f.coll.Vec(0), batchexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 30 {
		t.Fatalf("default K produced %d neighbors", len(res.Neighbors))
	}
	if !res.Exact {
		t.Fatal("default stop rule should run to completion")
	}
}

// Overlapped simulation must never be slower than serial for the same
// query, and both must exceed the index-read floor.
func TestOverlapFaster(t *testing.T) {
	f := getFixture(t, 31)
	s := batchexec.New(f.srSt, nil)
	q := f.coll.Vec(42)
	over, err := searchOne(s, q, batchexec.Options{K: 30, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := searchOne(s, q, batchexec.Options{K: 30, Overlap: false})
	if err != nil {
		t.Fatal(err)
	}
	if over.Simulated > serial.Simulated {
		t.Fatalf("overlap %v > serial %v", over.Simulated, serial.Simulated)
	}
	if over.Simulated <= over.IndexRead {
		t.Fatal("elapsed not above index read cost")
	}
}

func TestCustomModel(t *testing.T) {
	f := getFixture(t, 31)
	fast := &simdisk.Model{Seek: time.Microsecond, TransferRate: 1 << 40, DistanceCost: time.Nanosecond}
	s := batchexec.New(f.srSt, fast)
	res, err := searchOne(s, f.coll.Vec(3), batchexec.Options{K: 10, Stop: ChunkBudget(2)})
	if err != nil {
		t.Fatal(err)
	}
	slow := batchexec.New(f.srSt, nil)
	res2, err := searchOne(slow, f.coll.Vec(3), batchexec.Options{K: 10, Stop: ChunkBudget(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated >= res2.Simulated {
		t.Fatalf("fast model %v not faster than default %v", res.Simulated, res2.Simulated)
	}
}

func BenchmarkSearchCompletion(b *testing.B) {
	f := getFixture(b, 31)
	s := batchexec.New(f.srSt, nil)
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
	s := batchexec.New(f.srSt, nil)
	q := f.coll.Vec(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searchOne(s, q, batchexec.Options{K: 30, Stop: ChunkBudget(5)}); err != nil {
			b.Fatal(err)
		}
	}
}
