package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/shard"
)

// faultOpts is the stop-rule sweep the failure drills run under: both
// budget disciplines, including a wall-clock budget — with a shard held
// down and R=2, even time-budget results must be byte-identical, because
// failover to a known-down shard's replica costs no simulated stall.
func faultOpts() []SearchOptions {
	return []SearchOptions{
		{K: 20},
		{K: 20, MaxChunks: 4},
		{K: 20, MaxTime: 80 * time.Millisecond},
		{K: 20, GlobalBudget: true},
		{K: 20, MaxChunks: 12, GlobalBudget: true},
	}
}

// TestReplicatedIndexSurvivesShardDown pins the facade guarantee: with
// replication 2, holding any single shard down changes nothing — every
// result stays byte-identical to the healthy run (IDs, distances,
// ChunksRead, Simulated, Exact) with Degraded false, across both budget
// disciplines and the batch path.
func TestReplicatedIndexSurvivesShardDown(t *testing.T) {
	coll := GenerateCollection(6000, 51)
	cfg := BuildConfig{Strategy: StrategySRTree, ChunkSize: 250, Replication: 2}
	sx, err := BuildSharded(coll, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	if sx.Replication() != 2 {
		t.Fatalf("Replication() = %d", sx.Replication())
	}

	queryIdx := []int{0, 17, 999, 5999}
	queries := make([]Vector, len(queryIdx))
	for i, qi := range queryIdx {
		queries[i] = coll.Vec(qi)
	}

	for kill := 0; kill < sx.Shards(); kill++ {
		sx.ResetHealth()
		for _, opts := range faultOpts() {
			for _, q := range queries {
				want, err := sx.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				sx.MarkShardDown(kill)
				got, err := sx.Search(q, opts)
				down := sx.ShardsDown()
				sx.ResetHealth()
				if err != nil {
					t.Fatal(err)
				}
				if got.Degraded || got.ChunksSkipped != 0 {
					t.Fatalf("kill %d: degraded despite replication 2", kill)
				}
				if down != 1 {
					t.Fatalf("kill %d: ShardsDown = %d", kill, down)
				}
				compareResults(t, "shard-down", got, want)
			}
		}

		healthyBatch := make([]Result, len(queries))
		downBatch := make([]Result, len(queries))
		bopts := BatchOptions{SearchOptions: SearchOptions{K: 20}}
		if err := sx.SearchBatchInto(queries, bopts, healthyBatch); err != nil {
			t.Fatal(err)
		}
		sx.MarkShardDown(kill)
		if err := sx.SearchBatchInto(queries, bopts, downBatch); err != nil {
			t.Fatal(err)
		}
		sx.ResetHealth()
		for qi := range queries {
			if downBatch[qi].Degraded {
				t.Fatalf("kill %d batch q%d: degraded despite replication 2", kill, qi)
			}
			compareResults(t, "shard-down batch", &downBatch[qi], &healthyBatch[qi])
		}
	}
}

// TestUnreplicatedIndexDegradesHonestly pins the degraded contract at
// the facade: with replication 1, a down shard makes completion searches
// return exactly the exact k-NN over the surviving shards' descriptors,
// flagged Degraded with Exact off and ChunksSkipped equal to the dead
// shard's chunk count — never an error. One shard is no exception: with
// its only shard down, single, batch and multi-descriptor queries answer
// Degraded over no data instead of failing.
func TestUnreplicatedIndexDegradesHonestly(t *testing.T) {
	coll := GenerateCollection(6000, 77)
	for _, shards := range []int{3, 1} {
		sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 250}, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer sx.Close()
		for kill := 0; kill < sx.Shards(); kill++ {
			sx.ResetHealth()
			sx.MarkShardDown(kill)
			checkDegraded(t, coll, sx, kill)
		}
	}
}

// checkDegraded runs completion queries against sx with shard kill held
// down and checks every answer against the survivor oracle.
func checkDegraded(t *testing.T, coll *Collection, sx *ShardedIndex, kill int) {
	t.Helper()
	// With R=1 a shard's physical clusters are exactly its primaries, so
	// the surviving data is every other shard's parts.
	survivors := descriptor.NewCollection(coll.Dims(), 0)
	for s := range sx.parts {
		if s == kill {
			continue
		}
		for _, cl := range sx.parts[s] {
			for _, pos := range cl.Members {
				survivors.Append(coll.IDAt(pos), coll.Vec(pos))
			}
		}
	}
	label := fmt.Sprintf("%d shards, kill %d", sx.Shards(), kill)
	check := func(qi int, res *Result) {
		t.Helper()
		if !res.Degraded || res.Exact {
			t.Fatalf("%s q%d: Degraded %v, Exact %v", label, qi, res.Degraded, res.Exact)
		}
		if res.ChunksSkipped != len(sx.parts[kill]) {
			t.Fatalf("%s q%d: ChunksSkipped %d != dead shard's %d chunks",
				label, qi, res.ChunksSkipped, len(sx.parts[kill]))
		}
		if down := sx.ShardsDown(); down != 1 {
			t.Fatalf("%s q%d: ShardsDown %d", label, qi, down)
		}
		truth := Exact(survivors, coll.Vec(qi), 20)
		if len(res.Neighbors) != len(truth) {
			t.Fatalf("%s q%d: %d neighbors vs survivor oracle %d", label, qi, len(res.Neighbors), len(truth))
		}
		for i := range truth {
			if res.Neighbors[i] != truth[i] {
				t.Fatalf("%s q%d rank %d: %+v != survivor oracle %+v", label, qi, i, res.Neighbors[i], truth[i])
			}
		}
	}

	queryIdx := []int{3, 512, 4000}
	queries := make([]Vector, len(queryIdx))
	for i, qi := range queryIdx {
		queries[i] = coll.Vec(qi)
		res, err := sx.Search(queries[i], SearchOptions{K: 20})
		if err != nil {
			t.Fatalf("%s q%d: %v", label, qi, err)
		}
		check(qi, res)
	}
	batch := make([]Result, len(queries))
	if err := sx.SearchBatchInto(queries, BatchOptions{SearchOptions: SearchOptions{K: 20}}, batch); err != nil {
		t.Fatalf("%s batch: %v", label, err)
	}
	for i, qi := range queryIdx {
		check(qi, &batch[i])
	}
	multi, err := sx.MultiSearch(queries, MultiSearchOptions{})
	if err != nil {
		t.Fatalf("%s multi: %v", label, err)
	}
	if !multi.Degraded {
		t.Fatalf("%s multi: not Degraded", label)
	}
}

// TestReplicatedSaveOpenRoundTrip pins the placement sidecar through the
// facade: a replicated index saved and reopened keeps its replication
// factor and serves byte-identical results, healthy and with a shard
// held down.
func TestReplicatedSaveOpenRoundTrip(t *testing.T) {
	coll := GenerateCollection(5000, 91)
	sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200, Replication: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()

	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shard.PlacementName)); err != nil {
		t.Fatalf("replicated save left no placement sidecar: %v", err)
	}
	fx, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	if fx.Replication() != 2 {
		t.Fatalf("reopened Replication() = %d, want 2", fx.Replication())
	}
	if fx.Chunks() != sx.Chunks() || fx.Len() != sx.Len() {
		t.Fatalf("reopened shape: chunks %d/%d len %d/%d", fx.Chunks(), sx.Chunks(), fx.Len(), sx.Len())
	}

	for _, opts := range faultOpts() {
		for _, qi := range []int{1, 700, 4999} {
			q := coll.Vec(qi)
			want, err := sx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, "file healthy", got, want)

			sx.MarkShardDown(2)
			fx.MarkShardDown(2)
			want, err = sx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err = fx.Search(q, opts)
			sx.ResetHealth()
			fx.ResetHealth()
			if err != nil {
				t.Fatal(err)
			}
			if got.Degraded {
				t.Fatal("file-backed replicated search degraded with one shard down")
			}
			compareResults(t, "file shard-down", got, want)
		}
	}
}
