// Quickstart: build a chunk index over a synthetic descriptor collection
// and compare an approximate search against the exact answer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A small collection of synthetic local image descriptors (about 200
	// images' worth). Real deployments would load one with
	// repro.LoadCollection.
	coll := repro.GenerateCollection(20000, 1)
	fmt.Printf("collection: %d descriptors of %d dims\n", coll.Len(), repro.Dims)

	// Chunk it with the paper's time-first strategy: an SR-tree bulk load
	// with uniform 500-descriptor leaves.
	idx, err := repro.BuildSharded(coll, repro.BuildConfig{
		Strategy:  repro.StrategySRTree,
		ChunkSize: 500,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d chunks\n", idx.Chunks())

	// Query with one of the collection's own descriptors (a DQ query).
	q := coll.Vec(4242)

	// Approximate: stop after the 5 nearest chunks (the paper's stop
	// rule). The simulated time is what this would have cost on the
	// paper's 2005 hardware.
	approx, err := idx.Search(q, repro.SearchOptions{K: 30, MaxChunks: 5, Overlap: true})
	if err != nil {
		log.Fatal(err)
	}

	// Exact: the sequential-scan ground truth.
	truth := repro.Exact(coll, q, 30)

	precision := repro.Precision(approx.Neighbors, truth)
	fmt.Printf("approximate: read %d/%d chunks in %.0f simulated ms (%.3f real ms)\n",
		approx.ChunksRead, idx.Chunks(),
		approx.Simulated.Seconds()*1000, float64(approx.Wall.Microseconds())/1000)
	fmt.Printf("precision within top 30: %.2f\n", precision)

	// Run to completion for the provably exact result.
	full, err := idx.Search(q, repro.SearchOptions{K: 30, Overlap: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completion: read %d chunks in %.2f simulated s (exact=%v, precision %.2f)\n",
		full.ChunksRead, full.Simulated.Seconds(), full.Exact,
		repro.Precision(full.Neighbors, truth))
}
