package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/faultstore"
	"repro/internal/imagegen"
	"repro/internal/scan"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/vec"
)

// faultSeed returns the deterministic fault seed for this run: the
// REPRO_FAULT_SEED environment variable when set (CI pins it), a fixed
// default otherwise.
func faultSeed(t testing.TB) int64 {
	t.Helper()
	if v := os.Getenv("REPRO_FAULT_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("REPRO_FAULT_SEED=%q: %v", v, err)
		}
		return seed
	}
	return 2005
}

// replicatedRouterOver builds a replicated router whose per-shard
// physical stores are wrapped in fault injectors, returning the router,
// the injectors (for Kill), and the placement.
func replicatedRouterOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, replication, pageSize int, cfg faultstore.Config) (*Router, []*faultstore.Store, *Placement) {
	t.Helper()
	coll := ds.Collection
	p, err := PartitionReplicated(clusters, shards, replication, coll.Dims(), pageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(coll, Select(clusters, physical), pageSize), cfg)
		stores[s] = faults[s]
	}
	r, err := NewRouter(stores, p, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r, faults, p
}

// sameAnswer asserts two results agree on IDs, distances, exactness and
// chunks read (simulated time is deliberately NOT compared: failure
// handling is allowed to cost time, never answers).
func sameAnswer(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if err := answerDiff(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// answerDiff is sameAnswer's comparison as an error, for goroutines that
// may not call t.Fatal.
func answerDiff(got, want *search.Result) error {
	if got.Exact != want.Exact || got.ChunksRead != want.ChunksRead {
		return fmt.Errorf("(exact %v, chunks %d) != healthy (exact %v, chunks %d)",
			got.Exact, got.ChunksRead, want.Exact, want.ChunksRead)
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		return fmt.Errorf("%d neighbors != healthy %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			return fmt.Errorf("rank %d: %+v != healthy %+v", i, got.Neighbors[i], want.Neighbors[i])
		}
	}
	return nil
}

// TestReplicatedKillAnyShardMatchesHealthy pins the tentpole guarantee:
// with R=2, killing any single shard changes nothing about the answers —
// IDs, distances, exactness and chunks read are identical to the healthy
// run, Degraded stays false — on the per-shard path, the global-budget
// path, and the batch path.
func TestReplicatedKillAnyShardMatchesHealthy(t *testing.T) {
	ds, clusters := fixture(t, 4000, 17, 130)
	coll := ds.Collection
	const shards, pageSize, k = 4, 4096, 20

	healthy, _, _ := replicatedRouterOver(t, ds, clusters, shards, 2, pageSize, faultstore.Config{})
	queryIdx := []int{3, 555, 1234, 3999}
	rules := []search.StopRule{nil, search.ChunkBudget(6)}

	type baseline struct {
		perShard []search.Result
		global   []search.Result
	}
	base := make([]baseline, len(rules))
	for ri, stop := range rules {
		base[ri].perShard = make([]search.Result, len(queryIdx))
		base[ri].global = make([]search.Result, len(queryIdx))
		for qi, pos := range queryIdx {
			opts := batchexec.Options{K: k, Stop: stop}
			if err := one(healthy.RunBatch, coll.Vec(pos), opts, &base[ri].perShard[qi]); err != nil {
				t.Fatal(err)
			}
			if err := one(healthy.RunBatchGlobal, coll.Vec(pos), opts, &base[ri].global[qi]); err != nil {
				t.Fatal(err)
			}
		}
	}

	queries := make([]vec.Vector, len(queryIdx))
	for qi, pos := range queryIdx {
		queries[qi] = coll.Vec(pos)
	}
	healthyBatch := make([]search.Result, len(queries))
	if err := healthy.RunBatch(queries, batchexec.Options{K: k}, healthyBatch); err != nil {
		t.Fatal(err)
	}

	for kill := 0; kill < shards; kill++ {
		r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, pageSize, faultstore.Config{})
		faults[kill].Kill()
		var res search.Result
		for ri, stop := range rules {
			for qi, pos := range queryIdx {
				opts := batchexec.Options{K: k, Stop: stop}
				if err := one(r.RunBatch, coll.Vec(pos), opts, &res); err != nil {
					t.Fatal(err)
				}
				if res.Degraded || res.ChunksSkipped != 0 {
					t.Fatalf("kill %d q%d: R=2 degraded (skipped %d) despite live replicas", kill, pos, res.ChunksSkipped)
				}
				sameAnswer(t, "kill "+strconv.Itoa(kill)+" per-shard", &res, &base[ri].perShard[qi])

				if err := one(r.RunBatchGlobal, coll.Vec(pos), opts, &res); err != nil {
					t.Fatal(err)
				}
				if res.Degraded || res.ChunksSkipped != 0 {
					t.Fatalf("kill %d q%d global: R=2 degraded despite live replicas", kill, pos)
				}
				sameAnswer(t, "kill "+strconv.Itoa(kill)+" global", &res, &base[ri].global[qi])
			}
		}
		if r.DownShards() != 1 || !r.ShardDown(kill) {
			t.Fatalf("kill %d: DownShards %d, ShardDown %v", kill, r.DownShards(), r.ShardDown(kill))
		}

		gotBatch := make([]search.Result, len(queries))
		if err := r.RunBatch(queries, batchexec.Options{K: k}, gotBatch); err != nil {
			t.Fatal(err)
		}
		for qi := range gotBatch {
			if gotBatch[qi].Degraded {
				t.Fatalf("kill %d batch q%d: R=2 degraded despite live replicas", kill, qi)
			}
			sameAnswer(t, fmt.Sprintf("kill %d batch q%d", kill, qi), &gotBatch[qi], &healthyBatch[qi])
		}
	}
}

// TestUnreplicatedKillDegradesToSurvivors pins the degraded contract:
// with R=1, killing shard k makes completion searches return exactly the
// scan oracle over the surviving shards' descriptors, flagged Degraded
// with ChunksSkipped equal to the dead shard's chunk count and Exact
// forced off.
func TestUnreplicatedKillDegradesToSurvivors(t *testing.T) {
	ds, clusters := fixture(t, 4000, 29, 130)
	coll := ds.Collection
	const shards, pageSize, k = 3, 4096, 20

	for kill := 0; kill < shards; kill++ {
		r, faults, p := replicatedRouterOver(t, ds, clusters, shards, 1, pageSize, faultstore.Config{})
		faults[kill].Kill()

		// The oracle: brute-force k-NN over the descriptors of every
		// cluster primaried on a surviving shard.
		survivors := descriptor.NewCollection(coll.Dims(), 0)
		for s := 0; s < shards; s++ {
			if s == kill {
				continue
			}
			for _, ci := range p.Primary[s] {
				for _, pos := range clusters[ci].Members {
					survivors.Append(coll.IDAt(pos), coll.Vec(pos))
				}
			}
		}

		var res search.Result
		for _, pos := range []int{7, 901, 2500, 3998} {
			q := coll.Vec(pos)
			if err := one(r.RunBatch, q, batchexec.Options{K: k}, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Degraded {
				t.Fatalf("kill %d q%d: result not flagged Degraded", kill, pos)
			}
			if res.Exact {
				t.Fatalf("kill %d q%d: degraded result claims Exact", kill, pos)
			}
			if res.ChunksSkipped != p.NumPrimary[kill] {
				t.Fatalf("kill %d q%d: ChunksSkipped %d != dead shard's %d chunks",
					kill, pos, res.ChunksSkipped, p.NumPrimary[kill])
			}
			if r.DownShards() != 1 {
				t.Fatalf("kill %d q%d: DownShards %d", kill, pos, r.DownShards())
			}
			truth := scan.KNN(survivors, q, k)
			if len(res.Neighbors) != len(truth) {
				t.Fatalf("kill %d q%d: %d neighbors vs survivor oracle %d", kill, pos, len(res.Neighbors), len(truth))
			}
			for i := range truth {
				if res.Neighbors[i] != truth[i] {
					t.Fatalf("kill %d q%d rank %d: %+v != survivor oracle %+v", kill, pos, i, res.Neighbors[i], truth[i])
				}
			}
		}
	}
}

// TestTransientRetriesNeverDoubleBill pins the retry billing rule: under
// seed-driven transient faults every answer, exactness flag and
// ChunksRead count is identical to the healthy run — retries and
// failovers cost simulated time (Elapsed may grow), never extra chunk
// charges — and the injected faults really did force retries.
func TestTransientRetriesNeverDoubleBill(t *testing.T) {
	ds, clusters := fixture(t, 4000, 41, 130)
	coll := ds.Collection
	const shards, pageSize, k = 3, 4096, 20

	healthy, calm, _ := replicatedRouterOver(t, ds, clusters, shards, 2, pageSize, faultstore.Config{})
	faulty, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, pageSize,
		faultstore.Config{Seed: faultSeed(t), TransientProb: 0.1})

	var want, got search.Result
	sawStall := false
	for _, pos := range []int{11, 432, 1500, 2750, 3900} {
		q := coll.Vec(pos)
		for _, stop := range []search.StopRule{nil, search.ChunkBudget(5)} {
			opts := batchexec.Options{K: k, Stop: stop}
			if err := one(healthy.RunBatch, q, opts, &want); err != nil {
				t.Fatal(err)
			}
			if err := one(faulty.RunBatch, q, opts, &got); err != nil {
				t.Fatal(err)
			}
			if got.Degraded || got.ChunksSkipped != 0 {
				t.Fatalf("q%d: transient faults degraded the result (seed %d)", pos, faultSeed(t))
			}
			sameAnswer(t, "transient q"+strconv.Itoa(pos), &got, &want)
			if got.Elapsed < want.Elapsed {
				t.Fatalf("q%d: faulty Elapsed %v < healthy %v — failed attempts not billed", pos, got.Elapsed, want.Elapsed)
			}
			sawStall = sawStall || got.Elapsed > want.Elapsed
		}
	}
	var calmReads, faultyReads int64
	for s := 0; s < shards; s++ {
		calmReads += calm[s].Reads()
		faultyReads += faults[s].Reads()
	}
	if faultyReads <= calmReads {
		t.Fatalf("faulty run made %d store reads vs healthy %d — no retries were injected", faultyReads, calmReads)
	}
	if !sawStall {
		t.Fatal("no query's Elapsed grew under faults — retry stalls were never billed")
	}
	if faulty.DownShards() != 0 {
		t.Fatalf("transient faults marked %d shards down", faulty.DownShards())
	}
}

// TestPartitionReplicatedInvariants checks the placement: primaries are
// the plain Partition unchanged, every cluster gets R−1 replicas on
// distinct shards none of which is its primary, replica locations name
// the right physical chunks, and the whole procedure is deterministic —
// with and without a workload heat profile.
func TestPartitionReplicatedInvariants(t *testing.T) {
	ds, clusters := fixture(t, 4000, 53, 130)
	coll := ds.Collection
	const shards, pageSize, R = 5, 4096, 3

	sample := make([]vec.Vector, 40)
	for i := range sample {
		sample[i] = coll.Vec(i * 97)
	}
	heats := [][]float64{nil, Heat(clusters, sample, 0)}

	assign, err := Partition(clusters, shards, coll.Dims(), pageSize)
	if err != nil {
		t.Fatal(err)
	}

	for hi, heat := range heats {
		p, err := PartitionReplicated(clusters, shards, R, coll.Dims(), pageSize, heat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Primary, assign) {
			t.Fatalf("heat %d: primaries differ from plain Partition", hi)
		}
		replicated := 0
		for s := range p.Replicas {
			if p.NumPrimary[s] != len(assign[s]) {
				t.Fatalf("heat %d shard %d: NumPrimary %d != %d", hi, s, p.NumPrimary[s], len(assign[s]))
			}
			for i, locs := range p.Replicas[s] {
				if len(locs) != R-1 {
					t.Fatalf("heat %d shard %d chunk %d: %d replicas, want %d", hi, s, i, len(locs), R-1)
				}
				ci := assign[s][i]
				var seen uint64
				seen |= 1 << s
				for _, loc := range locs {
					if seen&(1<<loc.Shard) != 0 {
						t.Fatalf("heat %d cluster %d: replica shard %d repeats a placement", hi, ci, loc.Shard)
					}
					seen |= 1 << loc.Shard
					ext := int(loc.Chunk) - p.NumPrimary[loc.Shard]
					if ext < 0 || ext >= len(p.Extra[loc.Shard]) || p.Extra[loc.Shard][ext] != ci {
						t.Fatalf("heat %d cluster %d: replica loc %+v does not hold the cluster", hi, ci, loc)
					}
					replicated++
				}
			}
		}
		if replicated != (R-1)*len(clusters) {
			t.Fatalf("heat %d: %d replicas placed, want %d", hi, replicated, (R-1)*len(clusters))
		}
		again, err := PartitionReplicated(clusters, shards, R, coll.Dims(), pageSize, heat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("heat %d: placement not deterministic", hi)
		}
	}

	if _, err := PartitionReplicated(clusters, 3, 4, coll.Dims(), pageSize, nil); err == nil {
		t.Fatal("replication > shards accepted")
	}
	if _, err := PartitionReplicated(clusters, 3, 0, coll.Dims(), pageSize, nil); err == nil {
		t.Fatal("replication 0 accepted")
	}
}

// TestPlacementSaveLoadRoundTrip pins the placement sidecar format.
func TestPlacementSaveLoadRoundTrip(t *testing.T) {
	ds, clusters := fixture(t, 2000, 61, 130)
	p, err := PartitionReplicated(clusters, 4, 2, ds.Collection.Dims(), 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), PlacementName)
	if err := SavePlacement(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlacement(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.R != p.R || !reflect.DeepEqual(got.NumPrimary, p.NumPrimary) || !reflect.DeepEqual(got.Replicas, p.Replicas) {
		t.Fatal("placement round trip differs")
	}
	if got.Primary != nil || got.Extra != nil {
		t.Fatal("loaded placement carries build-side state")
	}
}

// TestReplicatedConcurrentKill exercises the failover path under -race:
// a shard dies while a batch workload is mid-flight on several
// goroutines; every query must still complete without error, and any
// non-degraded result must be well-formed.
func TestReplicatedConcurrentKill(t *testing.T) {
	ds, clusters := fixture(t, 4000, 71, 130)
	coll := ds.Collection
	const shards, pageSize, k = 4, 4096, 15

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, pageSize,
		faultstore.Config{Seed: faultSeed(t), TransientProb: 0.05, Latency: 50 * time.Microsecond})

	queries := make([]vec.Vector, 32)
	for i := range queries {
		queries[i] = coll.Vec(i * 111)
	}
	done := make(chan error, 1)
	results := make([]search.Result, len(queries))
	go func() {
		done <- r.RunBatch(queries, batchexec.Options{K: k}, results)
	}()
	faults[1].Kill()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for qi := range results {
		if results[qi].Degraded {
			t.Fatalf("q%d: degraded despite R=2", qi)
		}
		if len(results[qi].Neighbors) != k {
			t.Fatalf("q%d: %d neighbors", qi, len(results[qi].Neighbors))
		}
	}
}
