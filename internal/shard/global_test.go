package shard

import (
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/search"
	"repro/internal/search/batchexec"
)

// TestGlobalOneShardMatchesSingleSearcher pins the degenerate-case
// equivalence: global budgets on a 1-shard router are byte-identical to a
// bare engine over the unsharded store — IDs, distances, ChunksRead,
// Simulated, IndexRead and Exact — under all three stop rules, on both
// store implementations.
func TestGlobalOneShardMatchesSingleSearcher(t *testing.T) {
	checkOneShard(t, true)
}

// TestGlobalCompletionMatchesScanOracle pins the global exactness
// certificate: a run-to-completion global search over S shards returns
// exactly the scan oracle's k-NN, with ChunksRead the sum over the
// per-shard breakdown and Simulated the max over the shards' machines.
func TestGlobalCompletionMatchesScanOracle(t *testing.T) {
	checkCompletion(t, true)
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
			if err := one(batchexec.New(r, nil).Run, q, batchexec.Options{K: 20, Stop: search.ChunkBudget(budget), GlobalBudget: true}, &res); err != nil {
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
	if err := one(batchexec.New(r, nil).Run, coll.Vec(7), batchexec.Options{K: 20, Stop: search.ChunkBudget(2)}, &res); err != nil {
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
			opts.GlobalBudget = true
			if err := one(batchexec.New(r, nil).Run, q, opts, &got); err != nil {
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
// outcome does not depend on its batch: a global-budget run of N is
// byte-identical to N batches of one — neighbors, ChunksRead, Simulated,
// IndexRead and Exact — under every stop rule.
func TestGlobalBatchMatchesGlobalSearch(t *testing.T) {
	checkBatchOfN(t, true)
}

// TestGlobalEmptyShards covers shards that hold no chunks (more shards
// than clusters): the global walk skips nothing, completion is still
// exact, and a tiny budget still spends exactly its total.
func TestGlobalEmptyShards(t *testing.T) {
	checkEmptyShards(t, true)
}

// TestGlobalConcurrentScatterBatch exercises the global-budget paths
// from many goroutines at once (the -race CI shard runs this):
// concurrent global batches, global single queries, and per-shard
// queries over one router must not interfere.
func TestGlobalConcurrentScatterBatch(t *testing.T) {
	checkConcurrent(t, true)
}
