package shard

import (
	"testing"

	"repro/internal/faultstore"
	"repro/internal/search"
	"repro/internal/search/batchexec"
)

// TestProbeReconcilesHealth pins the health rule Probe applies: a killed
// shard is marked down by the next probe, before any query pays to find
// out, and queries over it degrade honestly; a shard that stays dead stays
// down across probes; a revived shard returns to rotation with answers
// byte-identical to the healthy baseline; and transient failures
// (Temporary() == true) are evidence of neither death nor recovery.
func TestProbeReconcilesHealth(t *testing.T) {
	ds, clusters := fixture(t, 4000, 83, 130)
	coll := ds.Collection
	const shards, k, dead = 3, 20, 1

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 1, faultstore.Config{}, RouterOptions{})
	queryIdx := []int{5, 777, 2400, 3900}
	run := func(pos int, res *search.Result) {
		t.Helper()
		if err := one(batchexec.New(r).Run, coll.Vec(pos), batchexec.Options{K: k}, res); err != nil {
			t.Fatal(err)
		}
	}

	healthy := make([]search.Result, len(queryIdx))
	for qi, pos := range queryIdx {
		run(pos, &healthy[qi])
	}
	r.Probe()
	if r.DownShards() != 0 {
		t.Fatalf("probe of a healthy fleet marked %d shards down", r.DownShards())
	}

	// The shard dies while idle: the probe finds it, and queries degrade
	// (R=1, so no replica covers its chunks).
	faults[dead].Kill()
	r.Probe()
	if !r.ShardDown(dead) || r.DownShards() != 1 {
		t.Fatalf("probe after kill: shard down %v, %d down", r.ShardDown(dead), r.DownShards())
	}
	var res search.Result
	run(queryIdx[0], &res)
	if !res.Degraded || res.Exact || res.ChunksSkipped == 0 {
		t.Fatalf("dead-shard answer not honestly degraded: %+v", res)
	}

	// Still dead: repeated probes keep it down, no flapping.
	for i := 0; i < 3; i++ {
		r.Probe()
		if !r.ShardDown(dead) || r.DownShards() != 1 {
			t.Fatalf("probe %d recovered a still-dead shard", i)
		}
	}
	run(queryIdx[1], &res)
	if !res.Degraded {
		t.Fatal("still-dead shard served a non-degraded answer")
	}

	// The disk comes back: one probe restores full-fleet answers.
	faults[dead].Revive()
	r.Probe()
	if r.DownShards() != 0 {
		t.Fatalf("DownShards %d after the revived shard's probe", r.DownShards())
	}
	for qi, pos := range queryIdx {
		run(pos, &res)
		if res.Degraded || res.ChunksSkipped != 0 || r.DownShards() != 0 {
			t.Fatalf("q%d still degraded after recovery: %+v", pos, res)
		}
		sameAnswer(t, "recovered", &res, &healthy[qi])
	}

	// Every read fails transiently: probes flip no shard either way.
	flaky, _, _ := replicatedRouterOver(t, ds, clusters, shards, 1, faultstore.Config{Seed: faultSeed(t), TransientProb: 1}, RouterOptions{})
	flaky.Probe()
	if flaky.DownShards() != 0 {
		t.Fatalf("transient probe failures marked %d shards down", flaky.DownShards())
	}
	flaky.MarkShardDown(dead)
	flaky.Probe()
	if !flaky.ShardDown(dead) || flaky.DownShards() != 1 {
		t.Fatal("a transient probe failure recovered a down shard")
	}
}

// TestRecoveryAfterKill pins recovery from a death that a query, not a
// probe, discovered: the paying read marks the shard down and degrades,
// a probe of the still-dead store leaves it down so the next query stays
// honestly degraded, and once the store returns one probe restores
// answers byte-identical to the healthy baseline.
func TestRecoveryAfterKill(t *testing.T) {
	ds, clusters := fixture(t, 4000, 83, 130)
	coll := ds.Collection
	const shards, k, dead = 3, 20, 1

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 1, faultstore.Config{}, RouterOptions{})
	queryIdx := []int{5, 777, 2400, 3900}
	run := func(pos int, res *search.Result) {
		t.Helper()
		if err := one(batchexec.New(r).Run, coll.Vec(pos), batchexec.Options{K: k}, res); err != nil {
			t.Fatal(err)
		}
	}

	healthy := make([]search.Result, len(queryIdx))
	for qi, pos := range queryIdx {
		run(pos, &healthy[qi])
	}

	faults[dead].Kill()
	var res search.Result
	run(queryIdx[0], &res)
	if !res.Degraded || !r.ShardDown(dead) {
		t.Fatalf("kill not discovered by the query: degraded %v, down %v", res.Degraded, r.ShardDown(dead))
	}

	r.Probe()
	if !r.ShardDown(dead) || r.DownShards() != 1 {
		t.Fatalf("probe of a still-dead shard: down %v, %d down", r.ShardDown(dead), r.DownShards())
	}
	run(queryIdx[1], &res)
	if !res.Degraded || res.Exact {
		t.Fatalf("still-dead shard served a non-degraded answer: degraded %v, exact %v", res.Degraded, res.Exact)
	}

	faults[dead].Revive()
	r.Probe()
	if r.DownShards() != 0 {
		t.Fatalf("DownShards %d after recovery", r.DownShards())
	}
	for qi, pos := range queryIdx {
		run(pos, &res)
		if res.Degraded || res.ChunksSkipped != 0 || r.DownShards() != 0 {
			t.Fatalf("q%d still degraded after recovery: %+v", pos, res)
		}
		sameAnswer(t, "recovered", &res, &healthy[qi])
	}
}

// TestProbeIsControlPlane pins that probing reads exactly one physical
// chunk from each shard's own store, bills nothing to the served-read
// counters, and bypasses failover: a dead shard is marked down even when
// replicas elsewhere would mask it from queries.
func TestProbeIsControlPlane(t *testing.T) {
	ds, clusters := fixture(t, 3000, 89, 130)
	const shards = 3

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	r.Probe()
	for s, f := range faults {
		if got := f.Reads(); got != 1 {
			t.Fatalf("probe made %d reads on shard %d, want exactly 1", got, s)
		}
	}
	for s, ld := range r.ShardLoads(nil) {
		if ld.Reads != 0 {
			t.Fatalf("probe billed %d served reads to shard %d", ld.Reads, s)
		}
	}

	// With R=2 a search would fail over around the dead shard; the probe
	// must not — it judges the shard by its own store.
	faults[0].Kill()
	r.Probe()
	if !r.ShardDown(0) || r.DownShards() != 1 {
		t.Fatalf("probe of a dead shard was masked by failover: down %v, %d down", r.ShardDown(0), r.DownShards())
	}
}
