// Copyright protection: find transformed copies of an image in a large
// collection, the application the paper's descriptors were designed for
// (§4.1: "particularly well suited to enforce robust content-based image
// searches for copyright protection").
//
// The demo synthesizes a collection, picks a "protected" image, simulates
// a pirated copy (every local descriptor perturbed — crop, re-encode,
// logo overlay), and shows that voting over approximate per-descriptor
// searches identifies the source image, far faster than exact search.
//
//	go run ./examples/copyright
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"repro"
)

func main() {
	coll := repro.GenerateCollection(30000, 3)

	// Index with the quality-first strategy: for a copyright service the
	// index is built once and queried millions of times, so BAG's long
	// build amortizes. (Try StrategySRTree to see the trade-off.)
	start := time.Now()
	idx, err := repro.BuildSharded(coll, repro.BuildConfig{
		Strategy:  repro.StrategyBAG,
		ChunkSize: 600,
		Seed:      1,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d descriptors into %d chunks (%d outliers removed) in %v\n",
		idx.Len(), idx.Chunks(), len(idx.Outliers), time.Since(start).Round(time.Millisecond))

	// Collect the descriptors of one protected image.
	const protectedImage = 77
	var original []repro.Vector
	for i := 0; i < coll.Len(); i++ {
		if coll.IDAt(i).ImageOf() == protectedImage {
			original = append(original, coll.Vec(i))
		}
	}
	fmt.Printf("protected image %d has %d local descriptors\n", protectedImage, len(original))

	// Simulate the pirated copy: every descriptor slightly perturbed, a
	// quarter of them destroyed (occlusion by a station logo).
	r := rand.New(rand.NewSource(9))
	var pirated []repro.Vector
	for _, v := range original {
		if r.Float64() < 0.25 {
			continue
		}
		p := v.Clone()
		for d := range p {
			p[d] += float32(r.NormFloat64() * 0.8)
		}
		pirated = append(pirated, p)
	}
	fmt.Printf("pirated copy retains %d perturbed descriptors\n", len(pirated))

	// Identify the source: approximate k-NN per pirated descriptor, then
	// vote by source image (the multi-descriptor search scheme the
	// paper's §7 announces for the Eff² system).
	votes := map[uint32]int{}
	var simTotal time.Duration
	for _, q := range pirated {
		res, err := idx.Search(q, repro.SearchOptions{K: 5, MaxChunks: 2, Overlap: true})
		if err != nil {
			log.Fatal(err)
		}
		simTotal += res.Simulated
		for _, nb := range res.Neighbors {
			votes[nb.ID.ImageOf()]++
		}
	}

	type cand struct {
		img   uint32
		score int
	}
	var ranked []cand
	for img, s := range votes {
		ranked = append(ranked, cand{img, s})
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].score > ranked[b].score })

	fmt.Printf("\ntop image candidates (approximate search, %.1f simulated s total):\n",
		simTotal.Seconds())
	for i := 0; i < 5 && i < len(ranked); i++ {
		marker := ""
		if ranked[i].img == protectedImage {
			marker = "  <-- protected image"
		}
		fmt.Printf("  image %5d: %4d votes%s\n", ranked[i].img, ranked[i].score, marker)
	}
	if len(ranked) > 0 && ranked[0].img == protectedImage {
		fmt.Println("\ncopy detected: the pirated clip maps back to the protected image")
	} else {
		fmt.Println("\ncopy NOT detected — try more chunks per query")
	}
}
