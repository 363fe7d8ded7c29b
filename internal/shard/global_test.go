package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/scan"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/vec"
)

// TestGlobalOneShardMatchesSingleSearcher pins the degenerate-case
// equivalence: global budgets on a 1-shard router are byte-identical to a
// bare engine over the unsharded store — IDs, distances, ChunksRead,
// Elapsed, IndexRead and Exact — under all three stop rules, on both
// store implementations.
func TestGlobalOneShardMatchesSingleSearcher(t *testing.T) {
	checkOneShard(t, true)
}

// TestGlobalCompletionMatchesScanOracle pins the global exactness
// certificate: a run-to-completion global search over S shards returns
// exactly the scan oracle's k-NN, with ChunksRead the sum over the
// per-shard breakdown and Elapsed the max over the shards' machines.
func TestGlobalCompletionMatchesScanOracle(t *testing.T) {
	ds, clusters := fixture(t, 5000, 23, 130)
	coll := ds.Collection
	const pageSize = 4096
	const k = 25

	for _, shards := range []int{2, 4, 7} {
		r := routerOver(t, ds, clusters, shards, pageSize)
		var res search.Result
		for _, qi := range []int{1, 42, 777, 3210, 4999} {
			q := coll.Vec(qi)
			if err := one(r.RunBatchGlobal, q, batchexec.Options{K: k}, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatalf("S=%d q%d: global completion search not exact", shards, qi)
			}
			truth := scan.KNN(coll, q, k)
			if len(res.Neighbors) != len(truth) {
				t.Fatalf("S=%d q%d: %d neighbors vs oracle %d", shards, qi, len(res.Neighbors), len(truth))
			}
			for i := range truth {
				if res.Neighbors[i] != truth[i] {
					t.Fatalf("S=%d q%d rank %d: %+v != oracle %+v", shards, qi, i, res.Neighbors[i], truth[i])
				}
			}
			sumChunks, maxElapsed := 0, time.Duration(0)
			for _, mc := range res.PerMachine {
				sumChunks += mc.ChunksRead
				maxElapsed = max(maxElapsed, mc.Elapsed)
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

// TestGlobalBudgetSpendsExactlyTotal pins the closed S× gap: a global
// ChunkBudget(B) on S shards reads exactly min(B, total) chunks in
// total — including budgets smaller than the shard count and larger than
// the whole index — where the per-shard mode would read up to S×B.
func TestGlobalBudgetSpendsExactlyTotal(t *testing.T) {
	ds, clusters := fixture(t, 5000, 29, 130)
	coll := ds.Collection
	const shards = 4
	r := routerOver(t, ds, clusters, shards, 4096)
	total := len(clusters)

	var res search.Result
	for _, budget := range []int{1, 2, shards - 1, 5, 17, total, total + 10} {
		for _, qi := range []int{7, 900, 4242} {
			q := coll.Vec(qi)
			if err := one(r.RunBatchGlobal, q, batchexec.Options{K: 20, Stop: search.ChunkBudget(budget)}, &res); err != nil {
				t.Fatal(err)
			}
			want := budget
			if want > total {
				want = total
			}
			if res.ChunksRead != want {
				t.Fatalf("budget %d q%d: ChunksRead %d != %d", budget, qi, res.ChunksRead, want)
			}
			sum := 0
			for _, pc := range res.PerMachine {
				sum += pc.ChunksRead
			}
			if sum != want {
				t.Fatalf("budget %d q%d: per-shard sum %d != %d", budget, qi, sum, want)
			}
			if budget >= total && !res.Exact {
				t.Fatalf("budget %d q%d: read the whole index but not exact", budget, qi)
			}
		}
	}

	// The contrast pin: the per-shard discipline at the same per-shard
	// budget b reads S×b chunks (no shard exhausts its chunks at b=2).
	if err := one(r.RunBatch, coll.Vec(7), batchexec.Options{K: 20, Stop: search.ChunkBudget(2)}, &res); err != nil {
		t.Fatal(err)
	}
	if res.ChunksRead != shards*2 {
		t.Fatalf("per-shard budget 2 on %d shards: ChunksRead %d != %d", shards, res.ChunksRead, shards*2)
	}
}

// TestGlobalBudgetMatchesUnshardedBudget pins the quality side of the
// closed gap: at the same total budget B, the global router reads the
// same globally best-ranked chunks as the unsharded index, so it returns
// the identical neighbor set (sharding moves the chunks across machines
// but cannot change the centroid ranking).
func TestGlobalBudgetMatchesUnshardedBudget(t *testing.T) {
	ds, clusters := fixture(t, 5000, 43, 140)
	coll := ds.Collection
	const pageSize = 4096
	single := batchexec.New(chunkfile.NewMemStore(coll, clusters, pageSize), nil)
	r := routerOver(t, ds, clusters, 4, pageSize)

	var got, want search.Result
	for _, budget := range []int{1, 3, 8, 20} {
		for _, qi := range []int{0, 55, 1999, 4321} {
			q := coll.Vec(qi)
			opts := batchexec.Options{K: 20, Stop: search.ChunkBudget(budget)}
			if err := one(single.Run, q, opts, &want); err != nil {
				t.Fatal(err)
			}
			if err := one(r.RunBatchGlobal, q, opts, &got); err != nil {
				t.Fatal(err)
			}
			if got.ChunksRead != want.ChunksRead {
				t.Fatalf("budget %d q%d: ChunksRead %d != unsharded %d", budget, qi, got.ChunksRead, want.ChunksRead)
			}
			if len(got.Neighbors) != len(want.Neighbors) {
				t.Fatalf("budget %d q%d: %d neighbors != %d", budget, qi, len(got.Neighbors), len(want.Neighbors))
			}
			for i := range want.Neighbors {
				if got.Neighbors[i] != want.Neighbors[i] {
					t.Fatalf("budget %d q%d rank %d: %+v != unsharded %+v", budget, qi, i, got.Neighbors[i], want.Neighbors[i])
				}
			}
		}
	}
}

// TestGlobalBatchMatchesGlobalSearch pins that a query's global-budget
// outcome does not depend on its batch: RunBatchGlobal of N is
// byte-identical to N batches of one — neighbors, ChunksRead, Elapsed,
// IndexRead and Exact — under every stop rule.
func TestGlobalBatchMatchesGlobalSearch(t *testing.T) {
	checkBatchOfN(t, true)
}

// TestGlobalMultiQueryMatchesSingleStore pins the multi-descriptor
// global path: on 1 shard it is byte-identical (scores, simulated
// totals) to the single store's plain multi-descriptor query, and run to
// completion on 4 shards it still ranks images identically.
func TestGlobalMultiQueryMatchesSingleStore(t *testing.T) {
	checkMultiQuery(t, true)
}

// TestGlobalEmptyShards covers shards that hold no chunks (more shards
// than clusters): the global walk skips nothing, completion is still
// exact, and a tiny budget still spends exactly its total.
func TestGlobalEmptyShards(t *testing.T) {
	ds, clusters := fixture(t, 600, 47, 200)
	coll := ds.Collection
	r := routerOver(t, ds, clusters, len(clusters)+2, 4096)

	var res search.Result
	if err := one(r.RunBatchGlobal, coll.Vec(5), batchexec.Options{K: 10}, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Exact || len(res.Neighbors) != 10 {
		t.Fatalf("empty-shard global search: exact=%v neighbors=%d", res.Exact, len(res.Neighbors))
	}
	truth := scan.KNN(coll, coll.Vec(5), 10)
	for i := range truth {
		if res.Neighbors[i] != truth[i] {
			t.Fatalf("empty-shard global rank %d: %+v != %+v", i, res.Neighbors[i], truth[i])
		}
	}
	if len(res.PerMachine) != r.Shards() {
		t.Fatalf("PerMachine %d entries != %d shards", len(res.PerMachine), r.Shards())
	}

	if err := one(r.RunBatchGlobal, coll.Vec(5), batchexec.Options{K: 10, Stop: search.ChunkBudget(2)}, &res); err != nil {
		t.Fatal(err)
	}
	if res.ChunksRead != 2 {
		t.Fatalf("empty-shard global budget 2: ChunksRead %d", res.ChunksRead)
	}

	if err := one(r.RunBatchGlobal, make(vec.Vector, 3), batchexec.Options{K: 5}, &res); err == nil {
		t.Fatal("bad dims accepted")
	}
	if err := r.RunBatchGlobal(make([]vec.Vector, 2), batchexec.Options{}, make([]search.Result, 1)); err == nil {
		t.Fatal("mismatched results length accepted")
	}
	if err := r.RunBatchGlobal(nil, batchexec.Options{}, nil); err != nil {
		t.Fatalf("empty global batch: %v", err)
	}
}

// TestGlobalConcurrentScatterBatch exercises the global-budget paths
// from many goroutines at once (the -race CI shard runs this):
// concurrent global batches, global single queries, and per-shard
// queries over one router must not interfere.
func TestGlobalConcurrentScatterBatch(t *testing.T) {
	ds, clusters := fixture(t, 4000, 41, 120)
	coll := ds.Collection
	r := routerOver(t, ds, clusters, 4, 4096)

	queries := make([]vec.Vector, 16)
	for i := range queries {
		queries[i] = coll.Vec(i * 211)
	}
	opts := batchexec.Options{K: 10, Stop: search.ChunkBudget(8)}
	want := make([]search.Result, len(queries))
	if err := r.RunBatchGlobal(queries, opts, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				results := make([]search.Result, len(queries))
				if err := r.RunBatchGlobal(queries, opts, results); err != nil {
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
			case 1:
				var res search.Result
				for qi, q := range queries {
					if err := one(r.RunBatchGlobal, q, batchexec.Options{K: 10, Stop: search.ChunkBudget(8)}, &res); err != nil {
						t.Error(err)
						return
					}
					if res.ChunksRead != want[qi].ChunksRead || res.Elapsed != want[qi].Elapsed {
						t.Errorf("goroutine %d q%d: (%d, %v) != (%d, %v)",
							g, qi, res.ChunksRead, res.Elapsed, want[qi].ChunksRead, want[qi].Elapsed)
						return
					}
				}
			default:
				// Per-shard traffic interleaved with the global traffic:
				// the two disciplines share the shard stores and must not
				// perturb each other.
				var res search.Result
				for _, q := range queries {
					if err := one(r.RunBatch, q, batchexec.Options{K: 10, Stop: search.ChunkBudget(2)}, &res); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
