package shard

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/faultstore"
	"repro/internal/imagegen"
	"repro/internal/knn"
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
	chunks, err := srtree.Chunks(ds.Collection, nil, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	return ds, chunks
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
	r, err := NewRouter(stores, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// one runs q as a batch of one through run — a router's or an engine's
// Run — the way every point query executes, writing the outcome into res.
func one(run func([]vec.Vector, batchexec.Options, []search.Result) error, q vec.Vector, opts batchexec.Options, res *search.Result) error {
	out := []search.Result{{Neighbors: res.Neighbors}}
	err := run([]vec.Vector{q}, opts, out)
	*res = out[0]
	return err
}

// disciplines is the budget-discipline axis of the tables below.
var disciplines = []struct {
	name   string
	global bool
}{{"per-shard", false}, {"global", true}}

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
// unsharded store — IDs, distances, ChunksRead, Simulated, IndexRead and
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
	if err := chunkfile.SaveSharded(coll, [][]*cluster.Cluster{clusters}, []int{len(clusters)}, 1, dir, pageSize); err != nil {
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
	fileRouter, err := NewRouter([]chunkfile.Store{fileShards[0]}, nil, RouterOptions{})
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
		for _, stop := range stopRules() {
			opts := batchexec.Options{K: 20, Stop: stop}
			if err := su.single.Run(queries, opts, want); err != nil {
				t.Fatal(err)
			}
			opts.GlobalBudget = global
			var got search.Result
			for qi, q := range queries {
				if err := one(batchexec.New(su.router, nil).Run, q, opts, &got); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %v q%d", su.name, stop, qi)
				sameResult(t, label, &got, &want[qi])
				if len(got.PerMachine) != 1 || got.PerMachine[0].ChunksRead != want[qi].ChunksRead {
					t.Fatalf("%s: PerMachine %+v", label, got.PerMachine)
				}
			}
		}
	}
}

// TestShardedCompletionMatchesScanOracle pins the global-exactness claim:
// an S-shard run-to-completion search returns exactly the scan oracle's
// k-NN (IDs, order, bit-identical distances), with ChunksRead the sum and
// Simulated the max over the per-shard breakdown.
func TestShardedCompletionMatchesScanOracle(t *testing.T) {
	checkCompletion(t, false)
}

// checkCompletion is TestShardedCompletionMatchesScanOracle under the
// per-shard or, with global, the global budget discipline.
func checkCompletion(t *testing.T, global bool) {
	ds, clusters := fixture(t, 5000, 23, 130)
	coll := ds.Collection
	const pageSize = 4096
	const k = 25

	for _, shards := range []int{2, 4, 7} {
		r := routerOver(t, ds, clusters, shards, pageSize)
		var res search.Result
		for _, qi := range []int{1, 42, 777, 3210, 4999} {
			q := coll.Vec(qi)
			if err := one(batchexec.New(r, nil).Run, q, batchexec.Options{K: k, GlobalBudget: global}, &res); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("S=%d q%d", shards, qi)
			if !res.Exact {
				t.Fatalf("%s: completion search not exact", label)
			}
			if !slices.Equal(res.Neighbors, scan.KNN(coll, q, k)) {
				t.Fatalf("%s: neighbors differ from the oracle", label)
			}
			sumChunks, maxElapsed := 0, time.Duration(0)
			for _, mc := range res.PerMachine {
				sumChunks += mc.ChunksRead
				maxElapsed = max(maxElapsed, mc.Elapsed)
			}
			if res.ChunksRead != sumChunks || res.Simulated != maxElapsed || len(res.PerMachine) != shards {
				t.Fatalf("%s: (chunks %d, elapsed %v) != per-shard (sum %d, max %v) over %d shards",
					label, res.ChunksRead, res.Simulated, sumChunks, maxElapsed, len(res.PerMachine))
			}
		}
	}
}

// TestShardedBatchMatchesScatterSearch pins that a query's outcome
// does not depend on its batch: a run of N is byte-identical to N
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

	queries := make([]vec.Vector, 24)
	for i := range queries {
		queries[i] = coll.Vec(i * 191)
	}
	results := make([]search.Result, len(queries))
	for _, stop := range stopRules() {
		opts := batchexec.Options{K: 15, Stop: stop, GlobalBudget: global}
		if err := batchexec.New(r, nil).Run(queries, opts, results); err != nil {
			t.Fatal(err)
		}
		var want search.Result
		for qi, q := range queries {
			if err := one(batchexec.New(r, nil).Run, q, opts, &want); err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%v q%d", stop, qi), &results[qi], &want)
		}
	}
}

// TestShardedConcurrentScatter exercises the router from many goroutines
// at once (the -race CI shard runs this): concurrent batches and single
// queries over one router must not interfere.
func TestShardedConcurrentScatter(t *testing.T) {
	checkConcurrent(t, false)
}

// checkConcurrent is TestShardedConcurrentScatter under the per-shard or,
// with global, the global budget discipline, with single queries under
// the other discipline interleaved: the two share the shard stores and
// must not perturb each other.
func checkConcurrent(t *testing.T, global bool) {
	ds, clusters := fixture(t, 4000, 41, 120)
	coll := ds.Collection
	r := routerOver(t, ds, clusters, 4, 4096)

	queries := make([]vec.Vector, 16)
	for i := range queries {
		queries[i] = coll.Vec(i * 211)
	}
	opts := []batchexec.Options{{K: 10, Stop: search.ChunkBudget(4)}, {K: 10, Stop: search.ChunkBudget(8), GlobalBudget: true}}
	want := make([][]search.Result, len(opts))
	for d := range opts {
		want[d] = make([]search.Result, len(queries))
		if err := batchexec.New(r, nil).Run(queries, opts[d], want[d]); err != nil {
			t.Fatal(err)
		}
	}
	mine := 0
	if global {
		mine = 1
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := mine
			if g%3 == 2 {
				d = 1 - mine
			}
			results := make([]search.Result, len(queries))
			if g%3 == 0 {
				if err := batchexec.New(r, nil).Run(queries, opts[d], results); err != nil {
					t.Error(err)
					return
				}
			} else {
				for qi, q := range queries {
					if err := one(batchexec.New(r, nil).Run, q, opts[d], &results[qi]); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for qi := range results {
				if err := answerDiff(&results[qi], &want[d][qi]); err != nil || results[qi].Simulated != want[d][qi].Simulated {
					t.Errorf("goroutine %d q%d: %v (elapsed %v, want %v)", g, qi, err, results[qi].Simulated, want[d][qi].Simulated)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedEdgeCases covers empty shards (more shards than clusters),
// dimension validation, and result-length validation.
func TestShardedEdgeCases(t *testing.T) {
	checkEmptyShards(t, false)
	if _, err := NewRouter(nil, nil, RouterOptions{}); err == nil {
		t.Fatal("empty router accepted")
	}
	ds, clusters := fixture(t, 600, 47, 200)
	r := routerOver(t, ds, clusters, 2, 4096)
	var data chunkfile.Data
	for _, i := range []int{-1, r.Chunks()} {
		if err := r.ReadChunk(i, &data); !errors.Is(err, chunkfile.ErrChunkOOB) {
			t.Fatalf("ReadChunk(%d): err %v, want %v", i, err, chunkfile.ErrChunkOOB)
		}
	}
}

// checkEmptyShards is the batch half of TestShardedEdgeCases under the
// per-shard or, with global, the global budget discipline: on a router
// with more shards than clusters the surplus shards are empty but every
// query still completes, exactly, a tiny budget still spends its total,
// and bad batches are refused.
func checkEmptyShards(t *testing.T, global bool) {
	ds, clusters := fixture(t, 600, 47, 200)
	coll := ds.Collection
	r := routerOver(t, ds, clusters, len(clusters)+2, 4096)

	var res search.Result
	if err := one(batchexec.New(r, nil).Run, coll.Vec(5), batchexec.Options{K: 10, GlobalBudget: global}, &res); err != nil {
		t.Fatal(err)
	}
	truth := scan.KNN(coll, coll.Vec(5), 10)
	if !res.Exact || !slices.Equal(res.Neighbors, truth) || len(res.PerMachine) != r.Shards() {
		t.Fatalf("empty-shard search: exact=%v, %d machines, neighbors %v != %v", res.Exact, len(res.PerMachine), res.Neighbors, truth)
	}

	// Per shard, budget b reads up to b chunks on every shard; globally, b
	// in total. A budget past any product with the shard count reads all.
	for _, b := range []int{2, math.MaxInt} {
		want := min(b, len(clusters))
		if !global {
			want = 0
			for _, n := range r.placement.NumPrimary {
				want += min(n, b)
			}
		}
		if err := one(batchexec.New(r, nil).Run, coll.Vec(5), batchexec.Options{K: 10, Stop: search.ChunkBudget(b), GlobalBudget: global}, &res); err != nil {
			t.Fatal(err)
		}
		if res.ChunksRead != want || b == math.MaxInt && !res.Exact {
			t.Fatalf("empty-shard budget %d: ChunksRead %d != %d (exact %v)", b, res.ChunksRead, want, res.Exact)
		}
	}

	if err := one(batchexec.New(r, nil).Run, make(vec.Vector, 3), batchexec.Options{K: 5, GlobalBudget: global}, &res); err == nil {
		t.Fatal("bad dims accepted")
	}
	if err := batchexec.New(r, nil).Run(make([]vec.Vector, 2), batchexec.Options{GlobalBudget: global}, make([]search.Result, 1)); err == nil {
		t.Fatal("mismatched results length accepted")
	}
	if err := batchexec.New(r, nil).Run(nil, batchexec.Options{GlobalBudget: global}, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// shardRef is shard s of router r as a plain store — its logical chunks,
// no machine layout, reads through the router's replicated path — so an
// engine over it searches shard s alone, the way each shard's own engine
// did before the router became one walk.
type shardRef struct {
	chunkfile.Store // shard s's physical store
	r               *Router
	s               int
}

func (v shardRef) Meta() []chunkfile.Meta { return v.Store.Meta()[:v.r.placement.NumPrimary[v.s]] }
func (v shardRef) Centroids() []float32   { return v.Store.Centroids()[:len(v.Meta())*v.Dims()] }
func (v shardRef) ReadChunk(i int, d *chunkfile.Data) error {
	return v.r.readChunk(v.s, i, d)
}

// mergeRefs merges independent per-shard outcomes into one: the top k
// neighbors in knn.Less order, chunks summed, clocks the max (the
// machines run in parallel), exactness ANDed, degradation ORed.
func mergeRefs(rows []search.Result, k int) search.Result {
	out := search.Result{Exact: true}
	for _, row := range rows {
		out.Neighbors = append(out.Neighbors, row.Neighbors...)
		out.ChunksRead += row.ChunksRead
		out.ChunksSkipped += row.ChunksSkipped
		out.Simulated = max(out.Simulated, row.Simulated)
		out.IndexRead = max(out.IndexRead, row.IndexRead)
		out.Exact = out.Exact && row.Exact
		out.Degraded = out.Degraded || row.Degraded
	}
	slices.SortFunc(out.Neighbors, func(a, b search.Neighbor) int {
		if knn.Less(a.Dist, a.ID, b.Dist, b.ID) {
			return -1
		}
		return 1
	})
	out.Neighbors = out.Neighbors[:min(k, len(out.Neighbors))]
	return out
}

// TestPerShardMatchesIndependentShards pins the per-shard discipline of
// the one walk against S independent searches, one plain engine per shard
// merged by mergeRefs, across overlap, R 1/2, cache and a shard held
// down. Under the chunk and time budgets, which ignore the k-th distance,
// the walk is byte-identical: neighbors, chunks read and skipped,
// Simulated, IndexRead, Degraded, and every shard's own chunk count and
// clock. Run to completion it returns the same exact answers reading no
// more chunks, since the fleet's k-th distance is never larger than a
// shard's own. Either way a reference Exact implies Exact.
func TestPerShardMatchesIndependentShards(t *testing.T) {
	ds, clusters := fixture(t, 3000, 53, 120)
	coll := ds.Collection
	const shards, pageSize, k = 4, 4096, 15
	queries := []vec.Vector{coll.Vec(9), coll.Vec(1300), coll.Vec(2999)}
	rows := make([]search.Result, shards)
	var got search.Result

	for _, replication := range []int{1, 2} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			for _, down := range []int{-1, 1} {
				r, _, _ := replicatedRouterOver(t, ds, clusters, shards, replication, pageSize, faultstore.Config{}, RouterOptions{CacheBytes: cacheBytes})
				if down >= 0 {
					r.MarkShardDown(down)
				}
				refs := make([]*batchexec.Engine, shards)
				for s := range refs {
					refs[s] = batchexec.New(shardRef{r.Store(s), r, s}, nil)
				}
				for _, overlap := range []bool{false, true} {
					for _, stop := range append(stopRules(), search.ChunkBudget(math.MaxInt)) {
						opts := batchexec.Options{K: k, Stop: stop, Overlap: overlap}
						for qi, q := range queries {
							label := fmt.Sprintf("R=%d cache %d down %d overlap %v %v q%d", replication, cacheBytes, down, overlap, stop, qi)
							if err := one(batchexec.New(r, nil).Run, q, opts, &got); err != nil {
								t.Fatal(err)
							}
							for s := range refs {
								if err := one(refs[s].Run, q, opts, &rows[s]); err != nil {
									t.Fatal(err)
								}
							}
							want := mergeRefs(rows, k)
							if !slices.Equal(got.Neighbors, want.Neighbors) || got.ChunksSkipped != want.ChunksSkipped ||
								got.Degraded != want.Degraded || got.IndexRead != want.IndexRead || want.Exact && !got.Exact {
								t.Fatalf("%s: got %+v, independent shards %+v", label, got, want)
							}
							if _, completion := stop.(search.ToCompletion); completion {
								if got.ChunksRead > want.ChunksRead {
									t.Fatalf("%s: read %d chunks, independent shards %d", label, got.ChunksRead, want.ChunksRead)
								}
								continue
							}
							if got.ChunksRead != want.ChunksRead || got.Simulated != want.Simulated {
								t.Fatalf("%s: (chunks %d, elapsed %v) != independent shards (%d, %v)", label, got.ChunksRead, got.Simulated, want.ChunksRead, want.Simulated)
							}
							for s, mc := range got.PerMachine {
								if mc.ChunksRead != rows[s].ChunksRead || mc.Elapsed != rows[s].Simulated {
									t.Fatalf("%s: shard %d (chunks %d, elapsed %v) != its own search (%d, %v)", label, s, mc.ChunksRead, mc.Elapsed, rows[s].ChunksRead, rows[s].Simulated)
								}
							}
						}
					}
				}
				r.Close()
			}
		}
	}
}
