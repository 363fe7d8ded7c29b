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
)

// cachedRouterOver is routerOver with a decoded-chunk cache configured.
func cachedRouterOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, pageSize int, cfg CacheConfig) *Router {
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
	r, err := NewRouter(stores, nil, nil, RouterOptions{Cache: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameResult asserts byte-identity of the full merged outcome, including
// the simulated costs a cache, a batch or a one-shard router must not
// perturb.
func sameResult(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	sameAnswer(t, label, got, want)
	if got.Elapsed != want.Elapsed || got.IndexRead != want.IndexRead {
		t.Fatalf("%s: simulated times (%v, %v) != (%v, %v)",
			label, got.Elapsed, got.IndexRead, want.Elapsed, want.IndexRead)
	}
	if got.ChunksSkipped != want.ChunksSkipped || got.Degraded != want.Degraded {
		t.Fatalf("%s: (skipped %d, degraded %v) != (skipped %d, degraded %v)",
			label, got.ChunksSkipped, got.Degraded, want.ChunksSkipped, want.Degraded)
	}
}

// TestCachedRouterMatchesUncached pins the tentpole equivalence at the
// router: with the decoded-chunk cache on — either discipline — every
// path (per-shard scatter, global budget, batch on both) returns results
// byte-identical to the uncached router, including Elapsed and
// ChunksRead, under all three stop rules, on the cold pass and again on
// the fully warm pass.
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

	for _, disc := range []struct {
		name string
		cfg  CacheConfig
	}{
		{"shared", CacheConfig{Bytes: 64 << 20}},
		{"pershard", CacheConfig{Bytes: 16 << 20, PerShard: true}},
	} {
		cached := cachedRouterOver(t, ds, clusters, shards, pageSize, disc.cfg)
		for _, stop := range stopRules() {
			opts := batchexec.Options{K: k, Stop: stop}
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					var want, got search.Result
					if err := one(plain.RunBatch, q, opts, &want); err != nil {
						t.Fatal(err)
					}
					if err := one(cached.RunBatch, q, opts, &got); err != nil {
						t.Fatal(err)
					}
					sameResult(t, disc.name+"/search", &got, &want)

					if err := one(plain.RunBatchGlobal, q, opts, &want); err != nil {
						t.Fatal(err)
					}
					if err := one(cached.RunBatchGlobal, q, opts, &got); err != nil {
						t.Fatal(err)
					}
					sameResult(t, disc.name+"/global", &got, &want)
				}

				bopts := batchexec.Options{K: k, Stop: stop}
				want := make([]search.Result, len(queries))
				got := make([]search.Result, len(queries))
				if err := plain.RunBatch(queries, bopts, want); err != nil {
					t.Fatal(err)
				}
				if err := cached.RunBatch(queries, bopts, got); err != nil {
					t.Fatal(err)
				}
				for qi := range queries {
					sameResult(t, disc.name+"/batch", &got[qi], &want[qi])
				}
				if err := plain.RunBatchGlobal(queries, bopts, want); err != nil {
					t.Fatal(err)
				}
				if err := cached.RunBatchGlobal(queries, bopts, got); err != nil {
					t.Fatal(err)
				}
				for qi := range queries {
					sameResult(t, disc.name+"/batchglobal", &got[qi], &want[qi])
				}
			}
		}
		st := cached.CacheStats()
		if !st.Enabled || st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("%s: warm cache stats %+v", disc.name, st)
		}
		if err := cached.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if st := plain.CacheStats(); st.Enabled || st.Hits != 0 {
		t.Fatalf("uncached router reports cache stats %+v", st)
	}
}

// TestRouterCacheStatsAccounting pins the aggregation rule: a shared
// cache's budget appears once however many shards front it, a per-shard
// discipline's budget appears once per shard.
func TestRouterCacheStatsAccounting(t *testing.T) {
	ds, clusters := fixture(t, 2000, 31, 120)
	const shards, pageSize, budget = 3, 4096, int64(8 << 20)

	shared := cachedRouterOver(t, ds, clusters, shards, pageSize, CacheConfig{Bytes: budget})
	defer shared.Close()
	if st := shared.CacheStats(); st.MaxBytes != budget {
		t.Fatalf("shared MaxBytes %d, want %d (counted once)", st.MaxBytes, budget)
	}
	per := cachedRouterOver(t, ds, clusters, shards, pageSize, CacheConfig{Bytes: budget, PerShard: true})
	defer per.Close()
	if st := per.CacheStats(); st.MaxBytes != int64(shards)*budget {
		t.Fatalf("per-shard MaxBytes %d, want %d", st.MaxBytes, int64(shards)*budget)
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

	p, err := PartitionReplicated(clusters, shards, 1, coll.Dims(), pageSize, nil)
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
	r, err := NewRouter(stores, p, nil, RouterOptions{Cache: CacheConfig{Bytes: 64 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := coll.Vec(42)
	opts := batchexec.Options{K: k}
	var healthy, res search.Result
	if err := one(r.RunBatch, q, opts, &healthy); err != nil { // cold: fills the cache
		t.Fatal(err)
	}

	// Warm: the same query is all hits — no physical reads anywhere.
	before := make([]int64, shards)
	for s := range before {
		before[s] = faults[s].Reads()
	}
	if err := one(r.RunBatch, q, opts, &res); err != nil {
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
	if err := one(r.RunBatch, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.ChunksSkipped == 0 {
		t.Fatalf("down shard served from cache: %+v", res)
	}

	// Recovery invalidates: the revived disk is re-read, not the cache.
	faults[dead].Revive()
	readsAtRevive := faults[dead].Reads()
	r.MarkShardUp(dead)
	if err := one(r.RunBatch, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "recovered", &res, &healthy)
	if faults[dead].Reads() == readsAtRevive {
		t.Fatal("recovered shard still served from the pre-death cache (stale rows)")
	}
}
