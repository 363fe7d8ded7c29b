package shard

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/imagegen"
	"repro/internal/multiquery"
	"repro/internal/scan"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/srtree"
	"repro/internal/vec"
)

// fixture builds a collection and an SR-tree clustering for the tests.
func fixture(t testing.TB, n int, seed int64, chunkSize int) (*imagegen.Dataset, []*cluster.Cluster) {
	t.Helper()
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(n, seed))
	tree, err := srtree.Build(ds.Collection, nil, chunkSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	return ds, tree.Chunks()
}

// routerOver partitions the clusters across shards and serves them from
// in-memory stores.
func routerOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, pageSize int) *Router {
	t.Helper()
	coll := ds.Collection
	assign, err := Partition(clusters, shards, coll.Dims(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, len(assign))
	for s, idxs := range assign {
		stores[s] = chunkfile.NewMemStore(coll, Select(clusters, idxs), pageSize)
	}
	r, err := NewRouter(stores, nil, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// one runs q as a batch of one through run — a router's RunBatch or
// RunBatchGlobal — the way every point query executes, writing the
// outcome into res.
func one(run func([]vec.Vector, batchexec.Options, []search.Result) error, q vec.Vector, opts batchexec.Options, res *search.Result) error {
	out := []search.Result{{Neighbors: res.Neighbors}}
	err := run([]vec.Vector{q}, opts, out)
	*res = out[0]
	return err
}

func TestPartitionBalancedAndDeterministic(t *testing.T) {
	ds, clusters := fixture(t, 6000, 11, 150)
	dims := ds.Collection.Dims()
	const pageSize = 4096

	assign, err := Partition(clusters, 4, dims, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 4 {
		t.Fatalf("shards = %d", len(assign))
	}

	// Every cluster assigned exactly once, ascending within each shard.
	seen := make([]int, len(clusters))
	var loads [4]int64
	var maxChunk int64
	for s, idxs := range assign {
		for i, ci := range idxs {
			if i > 0 && idxs[i-1] >= ci {
				t.Fatalf("shard %d not ascending at %d: %v", s, i, idxs)
			}
			seen[ci]++
			b := int64(chunkfile.PaddedBytes(clusters[ci].Count(), dims, pageSize))
			loads[s] += b
			if b > maxChunk {
				maxChunk = b
			}
		}
	}
	for ci, c := range seen {
		if c != 1 {
			t.Fatalf("cluster %d assigned %d times", ci, c)
		}
	}

	// Greedy largest-first keeps the spread within one chunk's weight: the
	// heaviest shard exceeds the lightest by at most the largest chunk.
	minLoad, maxLoad := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad-minLoad > maxChunk {
		t.Fatalf("spread %d bytes > largest chunk %d (loads %v)", maxLoad-minLoad, maxChunk, loads)
	}

	// Deterministic: a second run yields the identical assignment.
	again, err := Partition(clusters, 4, dims, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for s := range assign {
		if len(assign[s]) != len(again[s]) {
			t.Fatalf("shard %d: %d vs %d clusters across runs", s, len(assign[s]), len(again[s]))
		}
		for i := range assign[s] {
			if assign[s][i] != again[s][i] {
				t.Fatalf("shard %d pos %d: %d vs %d across runs", s, i, assign[s][i], again[s][i])
			}
		}
	}

	// One shard is the identity partition.
	one, err := Partition(clusters, 1, dims, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(one[0]) != len(clusters) {
		t.Fatalf("1-shard partition shape %d/%d", len(one), len(one[0]))
	}
	for i, ci := range one[0] {
		if ci != i {
			t.Fatalf("1-shard partition not identity at %d: %d", i, ci)
		}
	}

	if _, err := Partition(clusters, 0, dims, pageSize); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// stopRules returns the paper's three stop rules at test-sized budgets.
func stopRules() []search.StopRule {
	return []search.StopRule{
		search.ToCompletion{},
		search.ChunkBudget(3),
		search.TimeBudget(80 * time.Millisecond),
	}
}

// TestOneShardMatchesSingleSearcher pins the tentpole equivalence: a
// 1-shard router returns byte-identical results to a bare engine over the
// unsharded store — IDs, distances, ChunksRead, Elapsed, IndexRead and
// Exact — under all three stop rules, on both store implementations.
func TestOneShardMatchesSingleSearcher(t *testing.T) {
	checkOneShard(t, false)
}

// checkOneShard is TestOneShardMatchesSingleSearcher under the per-shard
// or, with global, the global budget discipline.
func checkOneShard(t *testing.T, global bool) {
	ds, clusters := fixture(t, 5000, 17, 140)
	coll := ds.Collection
	const pageSize = 4096

	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "a.chunk"), filepath.Join(dir, "a.idx")
	if err := chunkfile.Write(coll, clusters, cp, ip, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := chunkfile.SaveSharded(coll, [][]*cluster.Cluster{clusters}, dir, pageSize); err != nil {
		t.Fatal(err)
	}
	fileSingleStore, err := chunkfile.Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	defer fileSingleStore.Close()
	fileShards, _, err := chunkfile.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	fileRouter, err := NewRouter([]chunkfile.Store{fileShards[0]}, nil, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fileRouter.Close()

	setups := []struct {
		name   string
		single *batchexec.Engine
		router *Router
	}{
		{"MemStore", batchexec.New(chunkfile.NewMemStore(coll, clusters, pageSize), nil), routerOver(t, ds, clusters, 1, pageSize)},
		{"FileStore", batchexec.New(fileSingleStore, nil), fileRouter},
	}
	queries := []vec.Vector{coll.Vec(0), coll.Vec(3), coll.Vec(99), coll.Vec(1234), coll.Vec(4999)}
	want := make([]search.Result, len(queries))
	for _, su := range setups {
		run := su.router.RunBatch
		if global {
			run = su.router.RunBatchGlobal
		}
		for _, stop := range stopRules() {
			opts := batchexec.Options{K: 20, Stop: stop}
			if err := su.single.Run(queries, opts, want); err != nil {
				t.Fatal(err)
			}
			var got search.Result
			for qi, q := range queries {
				if err := one(run, q, opts, &got); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %v q%d", su.name, stop, qi)
				sameResult(t, label, &got, &want[qi])
				if global && (len(got.PerMachine) != 1 || got.PerMachine[0].ChunksRead != want[qi].ChunksRead) {
					t.Fatalf("%s: PerMachine %+v", label, got.PerMachine)
				}
			}
		}
	}
}

// TestShardedCompletionMatchesScanOracle pins the global-exactness claim:
// an S-shard run-to-completion search returns exactly the scan oracle's
// k-NN (IDs, order, bit-identical distances), with Simulated the max and
// ChunksRead the sum of the per-shard outcomes.
func TestShardedCompletionMatchesScanOracle(t *testing.T) {
	ds, clusters := fixture(t, 5000, 23, 130)
	coll := ds.Collection
	const pageSize = 4096
	const k = 25

	for _, shards := range []int{2, 4, 7} {
		r := routerOver(t, ds, clusters, shards, pageSize)
		perShard := make([]*batchexec.Engine, r.Shards())
		for s := range perShard {
			perShard[s] = batchexec.New(r.Store(s), nil)
		}
		var res, sr search.Result
		for _, qi := range []int{1, 42, 777, 3210, 4999} {
			q := coll.Vec(qi)
			if err := one(r.RunBatch, q, batchexec.Options{K: k}, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatalf("S=%d q%d: completion search not exact", shards, qi)
			}
			truth := scan.KNN(coll, q, k)
			if !slices.Equal(res.Neighbors, truth) {
				t.Fatalf("S=%d q%d: neighbors differ from the oracle", shards, qi)
			}

			// Cost model: sum of chunks, max of simulated machines, against
			// independently run per-shard searches.
			sumChunks, maxElapsed := 0, time.Duration(0)
			for s := range perShard {
				if err := one(perShard[s].Run, q, batchexec.Options{K: k}, &sr); err != nil {
					t.Fatal(err)
				}
				sumChunks += sr.ChunksRead
				maxElapsed = max(maxElapsed, sr.Elapsed)
			}
			if res.ChunksRead != sumChunks {
				t.Fatalf("S=%d q%d: ChunksRead %d != per-shard sum %d", shards, qi, res.ChunksRead, sumChunks)
			}
			if res.Elapsed != maxElapsed {
				t.Fatalf("S=%d q%d: Elapsed %v != per-shard max %v", shards, qi, res.Elapsed, maxElapsed)
			}
		}
	}
}

// TestShardedBatchMatchesScatterSearch pins that a query's merged outcome
// does not depend on its batch: RunBatch of N is byte-identical to N
// batches of one under every stop rule.
func TestShardedBatchMatchesScatterSearch(t *testing.T) {
	checkBatchOfN(t, false)
}

// checkBatchOfN is TestShardedBatchMatchesScatterSearch under the
// per-shard or, with global, the global budget discipline.
func checkBatchOfN(t *testing.T, global bool) {
	ds, clusters := fixture(t, 5000, 31, 120)
	coll := ds.Collection
	r := routerOver(t, ds, clusters, 3, 4096)
	run := r.RunBatch
	if global {
		run = r.RunBatchGlobal
	}

	queries := make([]vec.Vector, 24)
	for i := range queries {
		queries[i] = coll.Vec(i * 191)
	}
	results := make([]search.Result, len(queries))
	for _, stop := range stopRules() {
		opts := batchexec.Options{K: 15, Stop: stop}
		if err := run(queries, opts, results); err != nil {
			t.Fatal(err)
		}
		var want search.Result
		for qi, q := range queries {
			if err := one(run, q, opts, &want); err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%v q%d", stop, qi), &results[qi], &want)
		}
	}
}

// TestShardedMultiQueryMatchesSingleStore pins the multi-descriptor path:
// a 1-shard router scores images identically to a one-shard router over
// the unsharded store, and an S-shard router still agrees on the exact
// (completion) per-descriptor searches.
func TestShardedMultiQueryMatchesSingleStore(t *testing.T) {
	checkMultiQuery(t, false)
}

// checkMultiQuery is TestShardedMultiQueryMatchesSingleStore under the
// per-shard or, with global, the global budget discipline; the reference
// is always the single store's plain MultiQuery.
func checkMultiQuery(t *testing.T, global bool) {
	ds, clusters := fixture(t, 4000, 37, 110)
	coll := ds.Collection
	const pageSize = 4096

	bag := make([]vec.Vector, 30)
	for i := range bag {
		bag[i] = coll.Vec(i * 97)
	}
	single, err := NewRouter([]chunkfile.Store{chunkfile.NewMemStore(coll, clusters, pageSize)}, nil, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, r *Router, opts multiquery.Options) (got, want *multiquery.Result) {
		t.Helper()
		multi := r.MultiQuery
		if global {
			multi = r.MultiQueryGlobal
		}
		got, err := multi(bag, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = single.MultiQuery(bag, opts); err != nil {
			t.Fatal(err)
		}
		if got.Descriptors != want.Descriptors || !slices.Equal(got.Images, want.Images) {
			t.Fatalf("%s: %d descriptors, images %+v != %d, %+v", name, got.Descriptors, got.Images, want.Descriptors, want.Images)
		}
		return got, want
	}

	// 1 shard, budgeted: byte-identical, including simulated totals.
	r1 := routerOver(t, ds, clusters, 1, pageSize)
	opts := multiquery.Options{K: 8, Stop: search.ChunkBudget(3), RankWeighted: true}
	if got, want := check("1-shard", r1, opts); got.Simulated != want.Simulated || got.ChunksRead != want.ChunksRead {
		t.Fatalf("1-shard: (sim %v, chunks %d) != (%v, %d)", got.Simulated, got.ChunksRead, want.Simulated, want.ChunksRead)
	}

	// 4 shards, run to completion: per-descriptor results are the exact
	// global k-NN on both sides, so the image ranking matches.
	check("4-shard completion", routerOver(t, ds, clusters, 4, pageSize), multiquery.Options{K: 8, Stop: search.ToCompletion{}})
}

// TestShardedConcurrentScatter exercises the scatter-gather paths from
// many goroutines at once (the -race CI shard runs this): concurrent
// batches and single queries over one router must not interfere.
func TestShardedConcurrentScatter(t *testing.T) {
	ds, clusters := fixture(t, 4000, 41, 120)
	coll := ds.Collection
	r := routerOver(t, ds, clusters, 4, 4096)

	queries := make([]vec.Vector, 16)
	for i := range queries {
		queries[i] = coll.Vec(i * 211)
	}
	want := make([]search.Result, len(queries))
	if err := r.RunBatch(queries, batchexec.Options{K: 10, Stop: search.ChunkBudget(4)}, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				results := make([]search.Result, len(queries))
				if err := r.RunBatch(queries, batchexec.Options{K: 10, Stop: search.ChunkBudget(4)}, results); err != nil {
					t.Error(err)
					return
				}
				for qi := range results {
					if len(results[qi].Neighbors) != len(want[qi].Neighbors) {
						t.Errorf("goroutine %d q%d: %d neighbors != %d",
							g, qi, len(results[qi].Neighbors), len(want[qi].Neighbors))
						return
					}
					for i := range want[qi].Neighbors {
						if results[qi].Neighbors[i] != want[qi].Neighbors[i] {
							t.Errorf("goroutine %d q%d rank %d mismatch", g, qi, i)
							return
						}
					}
				}
			} else {
				var res search.Result
				for qi, q := range queries {
					if err := one(r.RunBatch, q, batchexec.Options{K: 10, Stop: search.ChunkBudget(4)}, &res); err != nil {
						t.Error(err)
						return
					}
					if res.ChunksRead != want[qi].ChunksRead || res.Elapsed != want[qi].Elapsed {
						t.Errorf("goroutine %d q%d: (%d, %v) != (%d, %v)",
							g, qi, res.ChunksRead, res.Elapsed, want[qi].ChunksRead, want[qi].Elapsed)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedEdgeCases covers empty shards (more shards than clusters),
// dimension validation, and result-length validation.
func TestShardedEdgeCases(t *testing.T) {
	ds, clusters := fixture(t, 600, 47, 200)
	coll := ds.Collection

	// More shards than clusters: the surplus shards are empty but every
	// query still completes, exactly.
	r := routerOver(t, ds, clusters, len(clusters)+2, 4096)
	var res search.Result
	if err := one(r.RunBatch, coll.Vec(5), batchexec.Options{K: 10}, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Exact || len(res.Neighbors) != 10 {
		t.Fatalf("empty-shard search: exact=%v neighbors=%d", res.Exact, len(res.Neighbors))
	}
	truth := scan.KNN(coll, coll.Vec(5), 10)
	for i := range truth {
		if res.Neighbors[i] != truth[i] {
			t.Fatalf("empty-shard rank %d: %+v != %+v", i, res.Neighbors[i], truth[i])
		}
	}

	if err := one(r.RunBatch, make(vec.Vector, 3), batchexec.Options{K: 5}, &res); err == nil {
		t.Fatal("bad dims accepted")
	}
	if err := r.RunBatch(make([]vec.Vector, 2), batchexec.Options{}, make([]search.Result, 1)); err == nil {
		t.Fatal("mismatched results length accepted")
	}
	if err := r.RunBatch(nil, batchexec.Options{}, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := NewRouter(nil, nil, nil, RouterOptions{}); err == nil {
		t.Fatal("empty router accepted")
	}
	if _, err := r.MultiQuery(nil, multiquery.Options{}); err == nil {
		t.Fatal("empty multi-descriptor query accepted")
	}
}
