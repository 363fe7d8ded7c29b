// Chunk-size tuning: the paper's Experiment 2 (§5.6) as a user-facing
// workflow. Given a collection and a quality target ("find at least 28 of
// the true top 30"), sweep chunk sizes and report the simulated time each
// one needs, reproducing the U-shaped trade-off of Figures 6-7: very
// small chunks drown in seeks and index overhead, very large chunks drown
// in CPU, and a broad plateau (roughly 1,000-10,000 descriptors per
// chunk) is near-optimal — so exact uniformity matters less than avoiding
// the extremes (§5.7, lesson 3).
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	coll := repro.GenerateCollection(30000, 17)
	queries, err := repro.DatasetQueries(coll, 15, 4)
	if err != nil {
		log.Fatal(err)
	}
	const k = 30
	const wantFound = 28

	// Precompute ground truth once per query.
	truths := make([][]repro.Neighbor, len(queries))
	for i, q := range queries {
		truths[i] = repro.Exact(coll, q, k)
	}

	fmt.Printf("%10s %8s %12s %14s\n", "chunk size", "chunks", "avg chunks", "avg sim time")
	sizes := []int{100, 200, 400, 800, 1600, 3200, 6400, 12800}
	bestSize, bestTime := 0, -1.0
	for _, size := range sizes {
		idx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: size}, 1)
		if err != nil {
			log.Fatal(err)
		}
		var sumTime float64
		var sumChunks int
		for qi, q := range queries {
			// Grow the chunk budget until the quality target is met; the
			// simulated elapsed time of the final budget is the cost of
			// this chunk size for this query.
			lo, hi := 1, idx.Chunks()
			for lo < hi {
				mid := (lo + hi) / 2
				res, err := idx.Search(q, repro.SearchOptions{K: k, MaxChunks: mid, Overlap: true})
				if err != nil {
					log.Fatal(err)
				}
				if int(repro.Precision(res.Neighbors, truths[qi])*float64(k)+0.5) >= wantFound {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			res, err := idx.Search(q, repro.SearchOptions{K: k, MaxChunks: lo, Overlap: true})
			if err != nil {
				log.Fatal(err)
			}
			sumTime += res.Simulated.Seconds()
			sumChunks += res.ChunksRead
		}
		avgTime := sumTime / float64(len(queries))
		fmt.Printf("%10d %8d %12.1f %13.3fs\n",
			size, idx.Chunks(), float64(sumChunks)/float64(len(queries)), avgTime)
		if bestTime < 0 || avgTime < bestTime {
			bestSize, bestTime = size, avgTime
		}
	}
	fmt.Printf("\nbest chunk size for ≥%d/%d true neighbors: %d descriptors (%.3fs simulated)\n",
		wantFound, k, bestSize, bestTime)
	fmt.Println("(the paper's lesson: any size in the broad middle plateau is fine;")
	fmt.Println(" avoid the very small and very large extremes)")
}
