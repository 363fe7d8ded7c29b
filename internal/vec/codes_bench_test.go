package vec_test

import (
	"testing"

	"repro/internal/chunkcode"
	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/search"
	"repro/internal/srtree"
	"repro/internal/vec"
)

// BenchmarkKernelCodes is the coded-vs-exact pair on 1,000-row chunks of
// 24-d rows, per backend: "exact" is search.ScanChunk (the row kernel over
// every row, then the offers), "coded" is search.Scanner.Scan on the same
// chunks carrying their codes (the table build and code kernel, then the
// row kernel and offers over the rows the codes admit). One op is the
// walk of a dataset query over SR-tree chunks of a generated collection
// past its first chunk: its heap refilled as the first chunk left it, then
// the chunks ranked 2nd to 20th, the chunks the codes serve. ns/op ÷ 19
// is the cost per chunk.
func BenchmarkKernelCodes(b *testing.B) {
	const dims, k, walk = vec.Dims, 30, 20
	coll := imagegen.MustGenerate(imagegen.DefaultConfig(40000, 42)).Collection
	chunks, err := srtree.Chunks(coll, nil, 1000)
	if err != nil {
		b.Fatal(err)
	}
	mem := chunkfile.NewMemStore(coll, chunks)
	q := coll.Vec(4321)
	ranked := search.RankChunks(q, mem.Meta(), nil)[:walk]
	exact, coded := make([]chunkfile.Data, walk), make([]chunkfile.Data, walk)
	codes := make([]chunkcode.Codes, walk)
	for i, rc := range ranked {
		if err := mem.ReadChunk(rc.Idx, &exact[i]); err != nil {
			b.Fatal(err)
		}
		if !chunkcode.Build(exact[i].Vecs, dims, &codes[i]) {
			b.Fatal("Build refused the chunk")
		}
		coded[i].Alias(exact[i].IDs, exact[i].Vecs, dims, &codes[i], nil)
	}
	heap := knn.NewHeap(k)
	search.ScanChunk(q, dims, &exact[0], heap, nil)
	first := heap.AppendAll(nil)
	fill := func() {
		heap.Reset(k)
		for _, nb := range first {
			heap.OfferSquared(nb.ID, nb.Dist*nb.Dist)
		}
	}
	for _, backend := range vec.Backends() {
		b.Run(backend+"/exact", func(b *testing.B) {
			use(b, backend)
			var buf []float64
			for b.Loop() {
				fill()
				for i := 1; i < walk; i++ {
					buf = search.ScanChunk(q, dims, &exact[i], heap, buf)
				}
			}
		})
		b.Run(backend+"/coded", func(b *testing.B) {
			use(b, backend)
			var s search.Scanner
			for b.Loop() {
				fill()
				for i := 1; i < walk; i++ {
					s.Scan(q, dims, &coded[i], heap)
				}
			}
		})
	}
}

// use switches to backend for the rest of b, restoring the default after.
func use(b *testing.B, backend string) {
	if err := vec.UseBackend(backend); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { vec.UseBackend("") })
}
