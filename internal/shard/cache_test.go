package shard

import (
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/faultstore"
	"repro/internal/imagegen"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/vec"
	"repro/internal/workload"
)

// cachedRouterOver is routerOver with a decoded-chunk cache configured.
func cachedRouterOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, pageSize int, cacheBytes int64) *Router {
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
	r, err := NewRouter(stores, nil, RouterOptions{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameResult asserts byte-identity of the full outcome, including
// the simulated costs a cache, a batch or a one-shard router must not
// perturb.
func sameResult(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	sameAnswer(t, label, got, want)
	if got.Simulated != want.Simulated || got.IndexRead != want.IndexRead {
		t.Fatalf("%s: simulated times (%v, %v) != (%v, %v)",
			label, got.Simulated, got.IndexRead, want.Simulated, want.IndexRead)
	}
	if got.ChunksSkipped != want.ChunksSkipped || got.Degraded != want.Degraded {
		t.Fatalf("%s: (skipped %d, degraded %v) != (skipped %d, degraded %v)",
			label, got.ChunksSkipped, got.Degraded, want.ChunksSkipped, want.Degraded)
	}
}

// TestCachedRouterMatchesUncached pins the cache equivalence at the
// router: with the shared decoded-chunk cache on, both budget disciplines
// — single queries and batches — return results byte-identical to the
// uncached router, including Simulated and ChunksRead, under all three stop
// rules, on the cold pass and again on the fully warm pass.
func TestCachedRouterMatchesUncached(t *testing.T) {
	ds, clusters := fixture(t, 4000, 29, 130)
	coll := ds.Collection
	const shards, pageSize, k = 3, 4096, 15

	plain := routerOver(t, ds, clusters, shards, pageSize)
	defer plain.Close()
	queryIdx := []int{2, 444, 1717, 3999}
	queries := make([]vec.Vector, len(queryIdx))
	for i, pos := range queryIdx {
		queries[i] = coll.Vec(pos)
	}

	cached := cachedRouterOver(t, ds, clusters, shards, pageSize, 64<<20)
	for _, stop := range stopRules() {
		for pass := 0; pass < 2; pass++ {
			for _, d := range disciplines {
				opts := batchexec.Options{K: k, Stop: stop, GlobalBudget: d.global}
				for _, q := range queries {
					var want, got search.Result
					if err := one(batchexec.New(plain, nil).Run, q, opts, &want); err != nil {
						t.Fatal(err)
					}
					if err := one(batchexec.New(cached, nil).Run, q, opts, &got); err != nil {
						t.Fatal(err)
					}
					sameResult(t, d.name+"/search", &got, &want)
				}

				want := make([]search.Result, len(queries))
				got := make([]search.Result, len(queries))
				if err := batchexec.New(plain, nil).Run(queries, opts, want); err != nil {
					t.Fatal(err)
				}
				if err := batchexec.New(cached, nil).Run(queries, opts, got); err != nil {
					t.Fatal(err)
				}
				for qi := range queries {
					sameResult(t, d.name+"/batch", &got[qi], &want[qi])
				}
			}
		}
	}
	if st := cached.CacheStats(); !st.Enabled || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("warm cache stats %+v", st)
	}
	if err := cached.Close(); err != nil {
		t.Fatal(err)
	}
	if st := plain.CacheStats(); st.Enabled || st.Hits != 0 {
		t.Fatalf("uncached router reports cache stats %+v", st)
	}
}

// TestRouterCacheStatsAccounting pins the aggregation rule: the shared
// cache's budget appears once however many shards it fronts.
func TestRouterCacheStatsAccounting(t *testing.T) {
	ds, clusters := fixture(t, 2000, 31, 120)
	const shards, pageSize, budget = 3, 4096, int64(8 << 20)

	shared := cachedRouterOver(t, ds, clusters, shards, pageSize, budget)
	defer shared.Close()
	if st := shared.CacheStats(); st.MaxBytes != budget {
		t.Fatalf("shared MaxBytes %d, want %d (counted once)", st.MaxBytes, budget)
	}
}

// TestRouterCacheRecovery pins the health/cache interaction on the
// replicated read path with fault injection underneath:
//
//   - a warm cache serves hits without consulting the physical store
//     (the injector's read ordinal stays put);
//   - ProbeShard remains control-plane: it reads the physical store even
//     when every chunk is cached;
//   - a shard held down is not served from cache — the down check
//     precedes the read, so degraded results stay honest;
//   - MarkShardUp drops the recovered shard's cached rows: the next
//     query re-reads the replaced disk instead of serving stale rows,
//     and answers match the healthy baseline.
func TestRouterCacheRecovery(t *testing.T) {
	ds, clusters := fixture(t, 3000, 37, 130)
	coll := ds.Collection
	const shards, pageSize, k, dead = 3, 4096, 15, 1

	p, err := PartitionReplicated(clusters, shards, 1, coll.Dims(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(coll, Select(clusters, physical), pageSize), faultstore.Config{})
		stores[s] = faults[s]
	}
	r, err := NewRouter(stores, p, RouterOptions{CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := coll.Vec(42)
	opts := batchexec.Options{K: k}
	var healthy, res search.Result
	if err := one(batchexec.New(r, nil).Run, q, opts, &healthy); err != nil { // cold: fills the cache
		t.Fatal(err)
	}

	// Warm: the same query is all hits — no physical reads anywhere.
	before := make([]int64, shards)
	for s := range before {
		before[s] = faults[s].Reads()
	}
	if err := one(batchexec.New(r, nil).Run, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm", &res, &healthy)
	for s := range before {
		if got := faults[s].Reads(); got != before[s] {
			t.Fatalf("warm query consulted shard %d's store (%d -> %d reads)", s, before[s], got)
		}
	}

	// Probing stays control-plane: exactly one physical read.
	if err := r.ProbeShard(dead); err != nil {
		t.Fatal(err)
	}
	if got := faults[dead].Reads() - before[dead]; got != 1 {
		t.Fatalf("probe made %d physical reads, want 1", got)
	}

	// A down shard is never served from cache: with R=1 its chunks are
	// skipped and the result degrades, however warm the cache is.
	faults[dead].Kill()
	r.MarkShardDown(dead)
	if err := one(batchexec.New(r, nil).Run, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.ChunksSkipped == 0 {
		t.Fatalf("down shard served from cache: %+v", res)
	}

	// Recovery invalidates: the revived disk is re-read, not the cache.
	faults[dead].Revive()
	readsAtRevive := faults[dead].Reads()
	r.MarkShardUp(dead)
	if err := one(batchexec.New(r, nil).Run, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "recovered", &res, &healthy)
	if faults[dead].Reads() == readsAtRevive {
		t.Fatal("recovered shard still served from the pre-death cache (stale rows)")
	}
}

// TestReplicaDoesNotSplitCache pins that a replica is a failover copy,
// not a second cache entry: one Zipf query stream, run twice through R=1
// and R=2 routers over the same clustering under the same cache budget,
// scores the same number of cache hits. A healthy replicated router reads
// only primaries, so its shared cache holds each hot chunk once.
func TestReplicaDoesNotSplitCache(t *testing.T) {
	ds, clusters := fixture(t, 20000, 89, 250)
	const shards, pageSize, budget = 4, 4096, int64(2 << 20)
	queries, err := workload.Zipf(ds.Collection, 200, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := batchexec.Options{K: 20, Stop: search.ChunkBudget(5)}
	var hits [2]int64
	for ri, replication := range []int{1, 2} {
		r, _, _ := replicatedRouterOver(t, ds, clusters, shards, replication, pageSize, faultstore.Config{}, RouterOptions{CacheBytes: budget})
		var res search.Result
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				if err := one(batchexec.New(r, nil).Run, q, opts, &res); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := r.CacheStats()
		if st.Hits == 0 || st.Evictions == 0 {
			t.Fatalf("R=%d: cache stats %+v: the budget must be hit and bind", replication, st)
		}
		hits[ri] = st.Hits
		r.Close()
	}
	if hits[0] != hits[1] {
		t.Fatalf("cache hits: R=1 %d, R=2 %d; a replica split the cache", hits[0], hits[1])
	}
}
