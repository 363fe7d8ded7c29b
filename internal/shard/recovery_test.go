package shard

import (
	"testing"

	"repro/internal/faultstore"
	"repro/internal/search"
	"repro/internal/search/batchexec"
)

// TestRecoveryAfterKill pins the health-switch recovery contract that
// the serving layer's prober is built on: after a shard dies and is
// held down, ProbeShard keeps reporting it dead (so MarkShardUp alone
// cannot resurrect a corpse for more than one read), and once the
// replica actually returns — Revive — a probe succeeds, MarkShardUp
// restores routing, and answers match the healthy baseline again.
func TestRecoveryAfterKill(t *testing.T) {
	ds, clusters := fixture(t, 4000, 83, 130)
	coll := ds.Collection
	const shards, pageSize, k, dead = 3, 4096, 20, 1

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 1, pageSize, faultstore.Config{}, RouterOptions{})
	queryIdx := []int{5, 777, 2400, 3900}

	// Healthy baseline before any faults.
	healthy := make([]search.Result, len(queryIdx))
	for qi, pos := range queryIdx {
		if err := one(r.RunBatch, coll.Vec(pos), batchexec.Options{K: k}, &healthy[qi]); err != nil {
			t.Fatal(err)
		}
	}

	faults[dead].Kill()
	var res search.Result
	if err := one(r.RunBatch, coll.Vec(queryIdx[0]), batchexec.Options{K: k}, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !r.ShardDown(dead) {
		t.Fatalf("kill not discovered: degraded %v, down %v", res.Degraded, r.ShardDown(dead))
	}

	// Probing a dead shard reports the failure without flipping health.
	if err := r.ProbeShard(dead); err == nil {
		t.Fatal("ProbeShard on a dead shard returned nil")
	}
	if !r.ShardDown(dead) {
		t.Fatal("ProbeShard changed health state")
	}

	// Premature recovery: MarkShardUp while the store is still dead. The
	// router must keep serving — the very next read re-discovers the
	// corpse and the result is still honestly degraded.
	r.MarkShardUp(dead)
	if err := one(r.RunBatch, coll.Vec(queryIdx[1]), batchexec.Options{K: k}, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Exact {
		t.Fatalf("premature MarkShardUp produced a non-degraded answer: degraded %v, exact %v", res.Degraded, res.Exact)
	}
	if !r.ShardDown(dead) {
		t.Fatal("still-dead shard was not re-marked down after MarkShardUp")
	}

	// ResetHealth likewise cannot resurrect a corpse: flags clear, then
	// the next query re-discovers the dead shard and degrades.
	r.ResetHealth()
	if r.DownShards() != 0 {
		t.Fatalf("DownShards %d after ResetHealth", r.DownShards())
	}
	if err := one(r.RunBatch, coll.Vec(queryIdx[2]), batchexec.Options{K: k}, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !r.ShardDown(dead) {
		t.Fatalf("dead shard not rediscovered after ResetHealth: degraded %v, down %v", res.Degraded, r.ShardDown(dead))
	}

	// Real recovery: the store comes back, a probe confirms it, and
	// MarkShardUp restores full-fleet answers identical to the baseline.
	faults[dead].Revive()
	if err := r.ProbeShard(dead); err != nil {
		t.Fatalf("ProbeShard after Revive: %v", err)
	}
	r.MarkShardUp(dead)
	if r.DownShards() != 0 {
		t.Fatalf("DownShards %d after recovery", r.DownShards())
	}
	for qi, pos := range queryIdx {
		if err := one(r.RunBatch, coll.Vec(pos), batchexec.Options{K: k}, &res); err != nil {
			t.Fatal(err)
		}
		if res.Degraded || res.ChunksSkipped != 0 || r.DownShards() != 0 {
			t.Fatalf("q%d still degraded after recovery: %+v", pos, res)
		}
		sameAnswer(t, "recovered", &res, &healthy[qi])
	}
}

// TestProbeShardIsControlPlane pins that probing bills nothing to the
// simulated cost model and bypasses failover: it reads exactly one
// physical chunk from the probed shard's own store, even when replicas
// elsewhere could mask the failure.
func TestProbeShardIsControlPlane(t *testing.T) {
	ds, clusters := fixture(t, 3000, 89, 130)
	const shards, pageSize = 3, 4096

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, pageSize, faultstore.Config{}, RouterOptions{})
	before := faults[0].Reads()
	if err := r.ProbeShard(0); err != nil {
		t.Fatalf("probe healthy shard: %v", err)
	}
	if got := faults[0].Reads() - before; got != 1 {
		t.Fatalf("probe made %d reads, want exactly 1", got)
	}

	// With R=2 a search would fail over around the dead shard; the probe
	// must not — it reports the local store's own failure.
	faults[0].Kill()
	if err := r.ProbeShard(0); err == nil {
		t.Fatal("probe of a dead shard was masked (failover leaked into control plane)")
	}
	if r.ShardDown(0) {
		t.Fatal("probe changed health state")
	}
	if err := r.ProbeShard(-1); err == nil {
		t.Fatal("probe of shard -1 accepted")
	}
	if err := r.ProbeShard(shards); err == nil {
		t.Fatal("probe of out-of-range shard accepted")
	}
}
