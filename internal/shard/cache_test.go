package shard

import (
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/faultstore"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/workload"
)

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

// TestRouterCacheRecovery pins the health/cache interaction on the
// replicated read path with fault injection underneath:
//
//   - a warm cache serves hits without consulting the physical store
//     (the injector's read ordinal stays put);
//   - Probe remains control-plane: it reads each physical store even
//     when every chunk is cached, so it finds a killed store dead;
//   - a shard held down is not served from cache — the down check
//     precedes the read, so degraded results stay honest;
//   - recovery drops the recovered shard's cached rows and only those:
//     the next query re-reads the replaced disk instead of serving stale
//     rows, the other shards still answer from cache, and answers match
//     the healthy baseline.
func TestRouterCacheRecovery(t *testing.T) {
	ds, clusters := fixture(t, 3000, 37, 130)
	coll := ds.Collection
	const shards, k, dead = 3, 15, 1

	p, err := PartitionReplicated(clusters, shards, 1, coll.Dims())
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(coll, Select(clusters, physical)), faultstore.Config{})
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
	if err := one(batchexec.New(r).Run, q, opts, &healthy); err != nil { // cold: fills the cache
		t.Fatal(err)
	}

	// Warm: the same query is all hits — no physical reads anywhere.
	before := make([]int64, shards)
	for s := range before {
		before[s] = faults[s].Reads()
	}
	if err := one(batchexec.New(r).Run, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm", &res, &healthy)
	for s := range before {
		if got := faults[s].Reads(); got != before[s] {
			t.Fatalf("warm query consulted shard %d's store (%d -> %d reads)", s, before[s], got)
		}
	}

	// Probing stays control-plane: exactly one physical read per shard.
	r.Probe()
	for s := range before {
		if got := faults[s].Reads() - before[s]; got != 1 {
			t.Fatalf("probe made %d physical reads on shard %d, want 1", got, s)
		}
	}

	// A killed shard is found by the probe however warm the cache, and a
	// down shard is never served from cache: with R=1 its chunks are
	// skipped and the result degrades.
	faults[dead].Kill()
	r.Probe()
	if !r.ShardDown(dead) {
		t.Fatal("probe answered from the cache: killed shard not marked down")
	}
	if err := one(batchexec.New(r).Run, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.ChunksSkipped == 0 {
		t.Fatalf("down shard served from cache: %+v", res)
	}

	// Recovery invalidates the revived shard only: its disk is re-read,
	// the others keep answering from the cache.
	faults[dead].Revive()
	r.Probe()
	for s := range before {
		before[s] = faults[s].Reads()
	}
	if err := one(batchexec.New(r).Run, q, opts, &res); err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "recovered", &res, &healthy)
	for s := range before {
		reread := faults[s].Reads() != before[s]
		if s == dead && !reread {
			t.Fatal("recovered shard still served from the pre-death cache (stale rows)")
		}
		if s != dead && reread {
			t.Fatalf("recovering shard %d dropped shard %d's cached rows", dead, s)
		}
	}
}

// TestReplicaDoesNotSplitCache pins that a replica is a failover copy,
// not a second cache entry: one Zipf query stream, run twice through R=1
// and R=2 routers over the same clustering under the same cache budget,
// scores the same number of cache hits. A healthy replicated router reads
// only primaries, so its shared cache holds each hot chunk once.
func TestReplicaDoesNotSplitCache(t *testing.T) {
	ds, clusters := fixture(t, 20000, 89, 250)
	const shards, budget = 4, int64(2 << 20)
	queries, err := workload.Zipf(ds.Collection, 200, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := batchexec.Options{K: 20, Stop: search.ChunkBudget(5)}
	var hits [2]int64
	for ri, replication := range []int{1, 2} {
		r, _, _ := replicatedRouterOver(t, ds, clusters, shards, replication, faultstore.Config{}, RouterOptions{CacheBytes: budget})
		var res search.Result
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				if err := one(batchexec.New(r).Run, q, opts, &res); err != nil {
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
