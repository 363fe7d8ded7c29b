package repro_test

import (
	"fmt"

	"repro"
)

// ExampleBuildSharded indexes a small collection on one machine (one
// shard) and runs the paper's 5-nearest-chunks approximate search.
func ExampleBuildSharded() {
	coll := repro.GenerateCollection(10000, 1)
	idx, err := repro.BuildSharded(coll, repro.BuildConfig{
		Strategy:  repro.StrategySRTree,
		ChunkSize: 500,
	}, 1)
	if err != nil {
		panic(err)
	}
	q := coll.Vec(100)
	res, err := idx.Search(q, repro.SearchOptions{K: 30, MaxChunks: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println("neighbors:", len(res.Neighbors))
	fmt.Println("chunks read:", res.ChunksRead)
	// Output:
	// neighbors: 30
	// chunks read: 5
}

// ExampleShardedIndex_Search contrasts the exact stop rule with the sequential
// scan oracle: run-to-completion is provably exact.
func ExampleShardedIndex_Search() {
	coll := repro.GenerateCollection(8000, 2)
	idx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategyHybrid, ChunkSize: 400, Seed: 1}, 1)
	if err != nil {
		panic(err)
	}
	q := coll.Vec(42)
	res, err := idx.Search(q, repro.SearchOptions{K: 10})
	if err != nil {
		panic(err)
	}
	truth := repro.Exact(coll, q, 10)
	fmt.Println("exact:", res.Exact)
	fmt.Println("precision:", repro.Precision(res.Neighbors, truth))
	// Output:
	// exact: true
	// precision: 1
}

// ExampleShardedIndex_MultiSearch retrieves a source image from its own bag of
// local descriptors (the paper's §7 multi-descriptor search).
func ExampleShardedIndex_MultiSearch() {
	coll := repro.GenerateCollection(10000, 3)
	idx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 400}, 1)
	if err != nil {
		panic(err)
	}
	const img = 31
	var qs []repro.Vector
	for i := 0; i < coll.Len(); i++ {
		if coll.IDAt(i).ImageOf() == img {
			qs = append(qs, coll.Vec(i))
		}
	}
	res, err := idx.MultiSearch(qs, repro.MultiSearchOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("top image:", res.Images[0].Image)
	// Output:
	// top image: 31
}
