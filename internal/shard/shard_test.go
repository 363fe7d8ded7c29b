package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/faultstore"
	"repro/internal/imagegen"
	"repro/internal/knn"
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

// routerOver partitions the clusters across shards, unreplicated, and
// serves them from in-memory stores.
func routerOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards int) *Router {
	r, _, _ := replicatedRouterOver(t, ds, clusters, shards, 1, faultstore.Config{}, RouterOptions{})
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

	assign, err := partition(clusters, 4, dims)
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
			b := int64(chunkfile.PaddedBytes(clusters[ci].Count(), dims))
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
	again, err := partition(clusters, 4, dims)
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
	one, err := partition(clusters, 1, dims)
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

	if _, err := partition(clusters, 0, dims); err == nil {
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
// Exact — under all three stop rules. File-backed one-shard indexes are
// FuzzStackVsModel's reopened stores.
func TestOneShardMatchesSingleSearcher(t *testing.T) {
	checkOneShard(t, false)
}

// TestGlobalOneShardMatchesSingleSearcher pins the degenerate case of the
// global discipline: global budgets on a 1-shard router are byte-identical
// to a bare engine over the unsharded store, as in
// TestOneShardMatchesSingleSearcher.
func TestGlobalOneShardMatchesSingleSearcher(t *testing.T) {
	checkOneShard(t, true)
}

// checkOneShard is TestOneShardMatchesSingleSearcher under the per-shard
// or, with global, the global budget discipline.
func checkOneShard(t *testing.T, global bool) {
	ds, clusters := fixture(t, 5000, 17, 140)
	coll := ds.Collection
	single, router := batchexec.New(chunkfile.NewMemStore(coll, clusters)), routerOver(t, ds, clusters, 1)
	queries := []vec.Vector{coll.Vec(0), coll.Vec(3), coll.Vec(99), coll.Vec(1234), coll.Vec(4999)}
	want := make([]search.Result, len(queries))
	for _, stop := range stopRules() {
		opts := batchexec.Options{K: 20, Stop: stop}
		if err := single.Run(queries, opts, want); err != nil {
			t.Fatal(err)
		}
		opts.GlobalBudget = global
		var got search.Result
		for qi, q := range queries {
			if err := one(batchexec.New(router).Run, q, opts, &got); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v q%d", stop, qi)
			sameResult(t, label, &got, &want[qi])
			if len(got.PerMachine) != 1 || got.PerMachine[0].ChunksRead != want[qi].ChunksRead {
				t.Fatalf("%s: PerMachine %+v", label, got.PerMachine)
			}
		}
	}
}

// TestGlobalConcurrentScatterBatch exercises the global-budget paths
// from many goroutines at once (the -race CI shard runs this):
// concurrent global batches, global single queries, and per-shard
// queries over one router must not interfere.
func TestGlobalConcurrentScatterBatch(t *testing.T) {
	checkConcurrent(t, true)
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
	r := routerOver(t, ds, clusters, 4)

	queries := make([]vec.Vector, 16)
	for i := range queries {
		queries[i] = coll.Vec(i * 211)
	}
	opts := []batchexec.Options{{K: 10, Stop: search.ChunkBudget(4)}, {K: 10, Stop: search.ChunkBudget(8), GlobalBudget: true}}
	want := make([][]search.Result, len(opts))
	for d := range opts {
		want[d] = make([]search.Result, len(queries))
		if err := batchexec.New(r).Run(queries, opts[d], want[d]); err != nil {
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
				if err := batchexec.New(r).Run(queries, opts[d], results); err != nil {
					t.Error(err)
					return
				}
			} else {
				for qi, q := range queries {
					if err := one(batchexec.New(r).Run, q, opts[d], &results[qi]); err != nil {
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

// TestShardedEdgeCases covers a router over no stores, one with no
// placement, and reads outside the fleet's chunks.
func TestShardedEdgeCases(t *testing.T) {
	if _, err := NewRouter(nil, nil, RouterOptions{}); err == nil {
		t.Fatal("empty router accepted")
	}
	ds, clusters := fixture(t, 600, 47, 200)
	r := routerOver(t, ds, clusters, 2)
	if _, err := NewRouter([]chunkfile.Store{r.Store(0)}, nil, RouterOptions{}); err == nil {
		t.Fatal("router without a placement accepted")
	}
	var data chunkfile.Data
	for _, i := range []int{-1, r.Chunks()} {
		if err := r.ReadChunk(i, &data); !errors.Is(err, chunkfile.ErrChunkOOB) {
			t.Fatalf("ReadChunk(%d): err %v, want %v", i, err, chunkfile.ErrChunkOOB)
		}
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
// merged by mergeRefs, across overlap, R 1/2 and a shard held down
// (a cache changes nothing: FuzzStackVsModel's cached stores). Under the chunk and time budgets, which ignore the k-th distance,
// the walk is byte-identical: neighbors, chunks read and skipped,
// Simulated, IndexRead, Degraded, and every shard's own chunk count and
// clock. Run to completion it returns the same exact answers reading no
// more chunks, since the fleet's k-th distance is never larger than a
// shard's own. Either way a reference Exact implies Exact.
func TestPerShardMatchesIndependentShards(t *testing.T) {
	ds, clusters := fixture(t, 3000, 53, 120)
	coll := ds.Collection
	const shards, k = 4, 15
	queries := []vec.Vector{coll.Vec(9), coll.Vec(1300), coll.Vec(2999)}
	rows := make([]search.Result, shards)
	var got search.Result

	for _, replication := range []int{1, 2} {
		for _, down := range []int{-1, 1} {
			r, _, _ := replicatedRouterOver(t, ds, clusters, shards, replication, faultstore.Config{}, RouterOptions{})
			if down >= 0 {
				r.MarkShardDown(down)
			}
			refs := make([]*batchexec.Engine, shards)
			for s := range refs {
				refs[s] = batchexec.New(shardRef{r.Store(s), r, s})
			}
			for _, overlap := range []bool{false, true} {
				for _, stop := range append(stopRules(), search.ChunkBudget(math.MaxInt)) {
					opts := batchexec.Options{K: k, Stop: stop, Overlap: overlap}
					for qi, q := range queries {
						label := fmt.Sprintf("R=%d down %d overlap %v %v q%d", replication, down, overlap, stop, qi)
						if err := one(batchexec.New(r).Run, q, opts, &got); err != nil {
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
