package batchexec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/chunkcache"
	"repro/internal/chunkcode"
	"repro/internal/chunkfile"
	"repro/internal/knn"
	"repro/internal/race"
	"repro/internal/search"
	"repro/internal/vec"
)

// codedChunks reads every chunk of mem and builds its scan codes: plain
// views of the rows, and the same rows carrying their codes.
func codedChunks(t testing.TB, mem *chunkfile.MemStore) (plain, coded []chunkfile.Data) {
	t.Helper()
	n := len(mem.Meta())
	plain, coded = make([]chunkfile.Data, n), make([]chunkfile.Data, n)
	codes := make([]chunkcode.Codes, n)
	for i := range n {
		if err := mem.ReadChunk(i, &plain[i]); err != nil {
			t.Fatal(err)
		}
		if !chunkcode.Build(plain[i].Vecs, mem.Dims(), &codes[i]) {
			t.Fatalf("chunk %d: Build refused", i)
		}
		coded[i].Alias(plain[i].IDs, plain[i].Vecs, mem.Dims(), &codes[i], nil)
	}
	return plain, coded
}

// codedQueries returns 200 queries over mem: rows of its chunks, some
// pushed away from every row.
func codedQueries(plain []chunkfile.Data) []vec.Vector {
	queries := make([]vec.Vector, 200)
	for i := range queries {
		d := &plain[(i*7)%len(plain)]
		q := d.Vec((i * 13) % d.Len()).Clone()
		if i%4 == 3 {
			for j := range q {
				q[j] += float32(j%5) * 3.5
			}
		}
		queries[i] = q
	}
	return queries
}

// sameHeap reports whether two heaps hold the same entries in the same
// slots, distances bit for bit.
func sameHeap(a, b *knn.Heap) bool {
	return slices.Equal(a.AppendAll(nil), b.AppendAll(nil))
}

// TestCodedScansMatchExact pins the filter's exactness on every chunk of a
// fixture for 200 queries: after each chunk of a query's rank order, a
// coded search.Scanner.Scan leaves its heap byte-identical to
// search.ScanChunk's; and a coded scanGroup, whose members' heaps fill at
// different chunks (k from 10 to 250) so that some scan codes while
// others share the Multi kernel, leaves every member's heap byte-identical
// to its exact scan.
func TestCodedScansMatchExact(t *testing.T) {
	mem, _ := buildStore(t)
	plain, coded := codedChunks(t, mem)
	queries := codedQueries(plain)
	dims := mem.Dims()

	var s search.Scanner
	var d2 []float64
	exact, viaCodes := knn.NewHeap(30), knn.NewHeap(30)
	var ranked []search.RankedChunk
	for qi, q := range queries {
		k := []int{1, 10, 30}[qi%3]
		exact.Reset(k)
		viaCodes.Reset(k)
		ranked = search.RankChunks(q, mem.Meta(), ranked[:0])
		for pos, rc := range ranked {
			d2 = search.ScanChunk(q, dims, &plain[rc.Idx], exact, d2)
			s.Scan(q, dims, &coded[rc.Idx], viaCodes)
			if !sameHeap(exact, viaCodes) {
				t.Fatalf("query %d (k=%d), chunk %d at rank %d: coded Scan's heap differs", qi, k, rc.Idx, pos)
			}
		}
	}

	const group = 5
	a := &arena{dims: dims, states: make([]queryState, group)}
	refs := make([]*knn.Heap, group)
	members := []int32{0, 1, 2, 3, 4}
	var ws workerScratch
	for g := 0; g+group <= len(queries); g += group {
		for i := range group {
			k := 10 + 60*i
			a.states[i].q = queries[g+i]
			a.states[i].Heap.Reset(k)
			refs[i] = knn.NewHeap(k)
		}
		ranked = search.RankChunks(queries[g], mem.Meta(), ranked[:0])
		for pos, rc := range ranked {
			ws.data.Alias(coded[rc.Idx].IDs, coded[rc.Idx].Vecs, dims, coded[rc.Idx].Codes(), nil)
			a.scanGroup(&ws, members)
			for i := range group {
				d2 = search.ScanChunk(queries[g+i], dims, &plain[rc.Idx], refs[i], d2)
				if !sameHeap(refs[i], &a.states[i].Heap) {
					t.Fatalf("group at query %d, member %d (k=%d), chunk %d at rank %d: scanGroup's heap differs", g, i, refs[i].K(), rc.Idx, pos)
				}
			}
		}
	}
}

// TestCodedHitZeroAlloc pins the zero-allocation contract on a hit of a
// coded cache entry: once a resident cache has coded every chunk, batches
// (inline and pooled) and point queries scan codes with the code tables,
// survivor masks and gathered rows in worker scratch, allocating nothing.
func TestCodedHitZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	mem, queries := buildStore(t)
	cs := chunkcache.NewStore(mem, chunkcache.New(64<<20))
	eng := New(cs)
	one := make([]search.Result, 1)
	for range chunkcache.CodeAt + 1 { // every chunk read CodeAt+1 times
		if err := eng.Run(queries[:1], Options{Stop: search.ChunkBudget(math.MaxInt)}, one); err != nil {
			t.Fatal(err)
		}
	}
	if st := cs.Stats(); vec.CodeKernel() && st.Coded != len(mem.Meta()) {
		t.Fatalf("%d of %d chunks coded after warming", st.Coded, len(mem.Meta()))
	}
	for _, row := range []struct{ n, par int }{{len(queries), 1}, {len(queries), 0}, {1, 0}} {
		batch := queries[:row.n]
		opts := Options{K: 20, Stop: search.ChunkBudget(4), Parallelism: row.par}
		results := make([]search.Result, row.n)
		for range 3 {
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
			t.Fatalf("%d queries at parallelism %d on coded entries: %v allocations per run, want 0", row.n, row.par, allocs)
		}
	}
}
