package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/faultstore"
	"repro/internal/imagegen"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/simdisk"
	"repro/internal/vec"
	"repro/internal/workload"
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

// replicatedRouterOver builds a replicated router over fresh MemStores
// of the deterministic placement, each wrapped in a fault injector and an
// attempt log around the injector. It returns the router, the injectors
// (for Kill) and the logs. Every call gets its own stores, cache and load
// counters, so two routers never share mutable state.
func replicatedRouterOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, replication int, cfg faultstore.Config, opts RouterOptions) (*Router, []*faultstore.Store, []*attemptLog) {
	t.Helper()
	coll := ds.Collection
	p, err := PartitionReplicated(clusters, shards, replication, coll.Dims())
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	logs := make([]*attemptLog, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(coll, Select(clusters, physical)), cfg)
		logs[s] = &attemptLog{Store: faults[s], failing: map[*chunkfile.Data]failedRun{}, exhausted: map[int]int{}}
		stores[s] = logs[s]
	}
	r, err := NewRouter(stores, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, faults, logs
}

// attemptLog records what the router's retry policy saw of one shard's
// store: exhausted[i] counts the reads of physical chunk i that failed
// transiently readAttempts times running. A read's attempts are
// recognised by the Data they decode into — every reader owns its own.
type attemptLog struct {
	chunkfile.Store
	mu        sync.Mutex
	failing   map[*chunkfile.Data]failedRun
	exhausted map[int]int
}

// failedRun is one reader's current streak of transient failures.
type failedRun struct{ chunk, n int }

func (l *attemptLog) ReadChunk(i int, data *chunkfile.Data) error {
	err := l.Store.ReadChunk(i, data)
	l.mu.Lock()
	defer l.mu.Unlock()
	run := l.failing[data]
	delete(l.failing, data)
	if errors.Is(err, faultstore.ErrTransient) {
		if run.chunk != i {
			run = failedRun{chunk: i}
		}
		if run.n++; run.n == readAttempts {
			l.exhausted[i]++
		} else {
			l.failing[data] = run
		}
	}
	return err
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
// run, Degraded stays false — on the per-shard and the global-budget
// path (batches with shards held down are FuzzStackVsModel's). The
// healthy router's queries, run as batches of one where every charged
// chunk is one served read, leave ShardLoads summing to their ChunksRead.
func TestReplicatedKillAnyShardMatchesHealthy(t *testing.T) {
	ds, clusters := fixture(t, 4000, 17, 130)
	coll := ds.Collection
	const shards, k = 4, 20

	healthy, _, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	queryIdx := []int{3, 555, 1234, 3999}
	rules := []search.StopRule{nil, search.ChunkBudget(6)}

	// base[ri][d][qi]: the healthy outcome of query qi under rule ri and
	// discipline d.
	base := make([][][]search.Result, len(rules))
	var charged, served int64
	for ri, stop := range rules {
		base[ri] = make([][]search.Result, len(disciplines))
		for d, disc := range disciplines {
			base[ri][d] = make([]search.Result, len(queryIdx))
			for qi, pos := range queryIdx {
				opts := batchexec.Options{K: k, Stop: stop, GlobalBudget: disc.global}
				if err := one(batchexec.New(healthy).Run, coll.Vec(pos), opts, &base[ri][d][qi]); err != nil {
					t.Fatal(err)
				}
				charged += int64(base[ri][d][qi].ChunksRead)
			}
		}
	}
	for _, ld := range healthy.ShardLoads(nil) {
		served += ld.Reads
	}
	if served != charged {
		t.Fatalf("ShardLoads reads %d != total ChunksRead %d", served, charged)
	}

	for kill := 0; kill < shards; kill++ {
		r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
		faults[kill].Kill()
		var res search.Result
		for ri, stop := range rules {
			for d, disc := range disciplines {
				for qi, pos := range queryIdx {
					opts := batchexec.Options{K: k, Stop: stop, GlobalBudget: disc.global}
					if err := one(batchexec.New(r).Run, coll.Vec(pos), opts, &res); err != nil {
						t.Fatal(err)
					}
					if res.Degraded || res.ChunksSkipped != 0 {
						t.Fatalf("kill %d %s q%d: R=2 degraded (skipped %d) despite live replicas", kill, disc.name, pos, res.ChunksSkipped)
					}
					sameAnswer(t, "kill "+strconv.Itoa(kill)+" "+disc.name, &res, &base[ri][d][qi])
				}
			}
		}
		if r.DownShards() != 1 || !r.ShardDown(kill) {
			t.Fatalf("kill %d: DownShards %d, ShardDown %v", kill, r.DownShards(), r.ShardDown(kill))
		}
	}
}

// TestTransientRetriesNeverDoubleBill pins the retry billing rule: under
// seed-driven transient faults every answer, exactness flag and
// ChunksRead count is identical to the healthy run — retries and
// failovers cost simulated time (Simulated may grow), never extra chunk
// charges — and the injected faults really did force retries.
func TestTransientRetriesNeverDoubleBill(t *testing.T) {
	ds, clusters := fixture(t, 4000, 41, 130)
	coll := ds.Collection
	const shards, k = 3, 20

	healthy, calm, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	faulty, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2,
		faultstore.Config{Seed: faultSeed(t), TransientProb: 0.1}, RouterOptions{})

	var want, got search.Result
	sawStall := false
	for _, pos := range []int{11, 432, 1500, 2750, 3900} {
		q := coll.Vec(pos)
		for _, stop := range []search.StopRule{nil, search.ChunkBudget(5)} {
			opts := batchexec.Options{K: k, Stop: stop}
			if err := one(batchexec.New(healthy).Run, q, opts, &want); err != nil {
				t.Fatal(err)
			}
			if err := one(batchexec.New(faulty).Run, q, opts, &got); err != nil {
				t.Fatal(err)
			}
			if got.Degraded || got.ChunksSkipped != 0 {
				t.Fatalf("q%d: transient faults degraded the result (seed %d)", pos, faultSeed(t))
			}
			sameAnswer(t, "transient q"+strconv.Itoa(pos), &got, &want)
			if got.Simulated < want.Simulated {
				t.Fatalf("q%d: faulty Simulated %v < healthy %v — failed attempts not billed", pos, got.Simulated, want.Simulated)
			}
			sawStall = sawStall || got.Simulated > want.Simulated
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
		t.Fatal("no query's Simulated grew under faults — retry stalls were never billed")
	}
	if faulty.DownShards() != 0 {
		t.Fatalf("transient faults marked %d shards down", faulty.DownShards())
	}
}

// TestFailedReadBilledToOwningShard pins that a failed read attempt is
// billed to the shard that owns the chunk, priced like every chunk around
// it: with shard 0 killed at R=2, its first chunk's read fails once (the
// shard is then held down and its replicas serve), shard 0's clock grows
// by exactly that chunk's ReadTime, and shard 1 is untouched.
func TestFailedReadBilledToOwningShard(t *testing.T) {
	ds, clusters := fixture(t, 3000, 29, 130)
	const shards = 2
	q := ds.Collection.Vec(123)
	opts := batchexec.Options{K: 10, Stop: search.ChunkBudget(3)}

	healthy, _, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	faulty, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	faults[0].Kill()
	var want, got search.Result
	if err := one(batchexec.New(healthy).Run, q, opts, &want); err != nil {
		t.Fatal(err)
	}
	if err := one(batchexec.New(faulty).Run, q, opts, &got); err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "shard 0 killed", &got, &want)
	if !faulty.ShardDown(0) {
		t.Fatal("the killed shard was not held down")
	}
	first := -1
	for _, rc := range search.RankChunks(q, faulty.Meta(), nil) {
		if owner, _ := faulty.Layout(); owner[rc.Idx] == 0 {
			first = rc.Idx
			break
		}
	}
	if first < 0 {
		t.Fatal("shard 0 owns no chunk")
	}
	bytes := faulty.Meta()[first].Bytes
	stall := got.PerMachine[0].Elapsed - want.PerMachine[0].Elapsed
	if read := simdisk.Default2005().ReadTime(bytes); stall != read {
		t.Fatalf("failed attempt billed %v, want the chunk's ReadTime %v", stall, read)
	}
	if got.PerMachine[1] != want.PerMachine[1] {
		t.Fatalf("shard 1 billed %+v, healthy %+v", got.PerMachine[1], want.PerMachine[1])
	}
}

// TestPartitionReplicatedInvariants checks the placement: primaries are
// the plain Partition unchanged, every cluster gets R−1 replicas on
// distinct shards none of which is its primary, replica locations name
// the right physical chunks, and the whole procedure is deterministic.
func TestPartitionReplicatedInvariants(t *testing.T) {
	ds, clusters := fixture(t, 4000, 53, 130)
	coll := ds.Collection
	const shards, R = 5, 3

	assign, err := partition(clusters, shards, coll.Dims())
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionReplicated(clusters, shards, R, coll.Dims())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Primary, assign) {
		t.Fatal("primaries differ from plain Partition")
	}
	replicated := 0
	for s := range p.Replicas {
		if p.NumPrimary[s] != len(assign[s]) {
			t.Fatalf("shard %d: NumPrimary %d != %d", s, p.NumPrimary[s], len(assign[s]))
		}
		for i, locs := range p.Replicas[s] {
			if len(locs) != R-1 {
				t.Fatalf("shard %d chunk %d: %d replicas, want %d", s, i, len(locs), R-1)
			}
			ci := assign[s][i]
			seen := map[int32]bool{int32(s): true}
			for _, loc := range locs {
				if seen[loc.Shard] {
					t.Fatalf("cluster %d: replica shard %d repeats a placement", ci, loc.Shard)
				}
				seen[loc.Shard] = true
				ext := int(loc.Chunk) - p.NumPrimary[loc.Shard]
				if ext < 0 || ext >= len(p.Extra[loc.Shard]) || p.Extra[loc.Shard][ext] != ci {
					t.Fatalf("cluster %d: replica loc %+v does not hold the cluster", ci, loc)
				}
				replicated++
			}
		}
	}
	if replicated != (R-1)*len(clusters) {
		t.Fatalf("%d replicas placed, want %d", replicated, (R-1)*len(clusters))
	}
	again, err := PartitionReplicated(clusters, shards, R, coll.Dims())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, again) {
		t.Fatal("placement not deterministic")
	}

	if _, err := PartitionReplicated(clusters, 3, 4, coll.Dims()); err == nil {
		t.Fatal("replication > shards accepted")
	}
	if _, err := PartitionReplicated(clusters, 3, 0, coll.Dims()); err == nil {
		t.Fatal("replication 0 accepted")
	}
}

// TestPlacementSaveLoadRoundTrip pins that a placement survives a saved
// directory: the manifest records R and the primary counts, and Place
// on what is read back gives the build's replicas without its
// build-side state, filling every shard's physical chunks exactly.
func TestPlacementSaveLoadRoundTrip(t *testing.T) {
	ds, clusters := fixture(t, 2000, 61, 130)
	p, err := PartitionReplicated(clusters, 4, 2, ds.Collection.Dims())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), chunkfile.ManifestName)
	if err := chunkfile.WriteManifest(path, manifestOf(p, ds.Collection.Dims())); err != nil {
		t.Fatal(err)
	}
	got, m, err := loadPlacement(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.R != p.R || !reflect.DeepEqual(got.NumPrimary, p.NumPrimary) || !reflect.DeepEqual(got.Replicas, p.Replicas) {
		t.Fatal("placement round trip differs")
	}
	if got.Primary != nil || got.Extra != nil {
		t.Fatal("loaded placement carries build-side state")
	}
	for s, n := range physicalCounts(got) {
		if n != m.Shards[s].Chunks {
			t.Fatalf("shard %d: loaded layout puts %d chunks there, manifest records %d", s, n, m.Shards[s].Chunks)
		}
	}
}

// TestFailoverTerminatesAfterEveryCopy pins that a read tries each copy
// of a chunk once, under the retry policy, and then gives up: 65
// one-primary shards at R=65, so each chunk is replicated on all 64
// others, every store holding 65 copies of one cluster and every read
// failing transiently. The read must return ErrAllReplicasDown after
// exactly readAttempts attempts per copy, with no shard marked down —
// however many copies a placement names, failover never retries a copy
// forever.
func TestFailoverTerminatesAfterEveryCopy(t *testing.T) {
	ds, clusters := fixture(t, 2000, 67, 130)
	const shards = 65
	numPrimary := make([]int, shards)
	copies := make([]*cluster.Cluster, shards)
	for s := range numPrimary {
		numPrimary[s], copies[s] = 1, clusters[0]
	}
	p, err := Place(numPrimary, shards)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	for s := range stores {
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(ds.Collection, copies), faultstore.Config{TransientProb: 1})
		stores[s] = faults[s]
	}
	r, err := NewRouter(stores, p, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var data chunkfile.Data
	if err := r.readChunk(0, 0, &data); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("read with every copy failing: err %v, want %v", err, ErrAllReplicasDown)
	}
	for s, f := range faults {
		if f.Reads() != readAttempts {
			t.Fatalf("shard %d: %d read attempts, want %d", s, f.Reads(), readAttempts)
		}
	}
	if r.DownShards() != 0 {
		t.Fatalf("transient failures marked %d shards down", r.DownShards())
	}
	if data.FailedReads != shards*readAttempts || data.Stall <= 0 {
		t.Fatalf("every copy failing reported %d failed attempts and %v backoff, want %d and some",
			data.FailedReads, data.Stall, shards*readAttempts)
	}
}

// TestReplicatedOneDownSpreadsReads pins the declustered placement: with
// any one shard of a 4-shard R=2 index down, the replicas of its chunks
// are spread over the survivors, so a Zipf stream leaves their served
// reads within max/mean 1.25. Replicas placed round-robin — every
// replica of shard p on shard p+1 — would load one survivor with the
// dead shard's whole share, about 1.5.
func TestReplicatedOneDownSpreadsReads(t *testing.T) {
	ds, clusters := fixture(t, 20000, 83, 250)
	const shards = 4
	queries, err := workload.Zipf(ds.Collection, 400, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	defer r.Close()
	opts := batchexec.Options{K: 20, Stop: search.ChunkBudget(5)}
	var res search.Result
	for down := 0; down < shards; down++ {
		r.Probe()
		r.MarkShardDown(down)
		before := r.ShardLoads(nil)
		for _, q := range queries {
			if err := one(batchexec.New(r).Run, q, opts, &res); err != nil {
				t.Fatal(err)
			}
			if res.Degraded {
				t.Fatalf("shard %d down: R=2 query degraded", down)
			}
		}
		reads := make([]int64, shards)
		var sum, most int64
		for s, ld := range r.ShardLoads(nil) {
			reads[s] = ld.Reads - before[s].Reads
			if s == down {
				if reads[s] != 0 {
					t.Fatalf("shard %d is down yet served %d reads", s, reads[s])
				}
				continue
			}
			sum += reads[s]
			most = max(most, reads[s])
		}
		ratio := float64(most) * (shards - 1) / float64(sum)
		t.Logf("shard %d down: survivors' reads max/mean %.3f", down, ratio)
		if ratio > 1.25 {
			t.Fatalf("shard %d down: survivors' reads max/mean %.3f > 1.25 (%v)", down, ratio, reads)
		}
	}
}

// TestReplicatedConcurrentKill exercises the failover path under -race:
// a shard dies while a batch workload is mid-flight on several
// goroutines; every query must still complete without error, and any
// non-degraded result must be well-formed.
func TestReplicatedConcurrentKill(t *testing.T) {
	ds, clusters := fixture(t, 4000, 71, 130)
	coll := ds.Collection
	const shards, k = 4, 15

	r, faults, _ := replicatedRouterOver(t, ds, clusters, shards, 2,
		faultstore.Config{Seed: faultSeed(t), TransientProb: 0.05, Latency: 50 * time.Microsecond}, RouterOptions{})
	defer r.Close()

	queries := make([]vec.Vector, 32)
	for i := range queries {
		queries[i] = coll.Vec(i * 111)
	}
	done := make(chan error, 1)
	results := make([]search.Result, len(queries))
	go func() {
		done <- batchexec.New(r).Run(queries, batchexec.Options{K: k}, results)
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

// TestReplicatedConcurrentKillStress drives the failover path under
// -race: single queries race a batch workload on the same
// router while a shard dies mid-flight (with transient read faults and
// injected latency stirring the interleavings, pinned by
// REPRO_FAULT_SEED). Every query must complete without error, and
// degrade honestly: R=2 erases the dead shard, but a chunk whose only
// other copy fails all its retries is legitimately skipped, so a result
// may be Degraded only if the attempt logs show some chunk with every
// copy either on the dead shard or out of retries — and every result
// that is not must be the fault-free router's, byte for byte.
func TestReplicatedConcurrentKillStress(t *testing.T) {
	ds, clusters := fixture(t, 4000, 71, 130)
	coll := ds.Collection
	const shards, k, killed = 4, 15, 1

	healthy, _, _ := replicatedRouterOver(t, ds, clusters, shards, 2, faultstore.Config{}, RouterOptions{})
	defer healthy.Close()
	r, faults, logs := replicatedRouterOver(t, ds, clusters, shards, 2,
		faultstore.Config{Seed: faultSeed(t), TransientProb: 0.05, Latency: 50 * time.Microsecond}, RouterOptions{})
	defer r.Close()

	queries := make([]vec.Vector, 32)
	for i := range queries {
		queries[i] = coll.Vec(i * 111)
	}
	var wg sync.WaitGroup
	var degraded atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var res, want search.Result
			for i := 0; i < 4; i++ {
				q := coll.Vec((g*997 + i*313) % coll.Len())
				if err := one(batchexec.New(r).Run, q, batchexec.Options{K: k}, &res); err != nil {
					t.Errorf("query goroutine %d: %v", g, err)
					return
				}
				if res.Degraded {
					degraded.Add(1)
					continue
				}
				if err := one(batchexec.New(healthy).Run, q, batchexec.Options{K: k}, &want); err != nil {
					t.Errorf("query goroutine %d: healthy: %v", g, err)
					return
				}
				if err := answerDiff(&res, &want); err != nil {
					t.Errorf("query goroutine %d query %d: %v", g, i, err)
				}
			}
		}(g)
	}
	done := make(chan error, 1)
	results := make([]search.Result, len(queries))
	go func() {
		done <- batchexec.New(r).Run(queries, batchexec.Options{K: k}, results)
	}()
	faults[killed].Kill()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	want := make([]search.Result, len(queries))
	if err := batchexec.New(healthy).Run(queries, batchexec.Options{K: k}, want); err != nil {
		t.Fatal(err)
	}
	for qi := range results {
		if results[qi].Degraded {
			degraded.Add(1)
		} else if err := answerDiff(&results[qi], &want[qi]); err != nil {
			t.Errorf("q%d: %v", qi, err)
		}
	}
	if n := degraded.Load(); n > 0 {
		spent := func(shard, chunk int) bool {
			return shard == killed || logs[shard].exhausted[chunk] > 0
		}
		unreachable := 0
		for s, replicas := range r.placement.Replicas {
			for i, locs := range replicas {
				all := spent(s, i)
				for _, loc := range locs {
					all = all && spent(int(loc.Shard), int(loc.Chunk))
				}
				if all {
					unreachable++
				}
			}
		}
		if unreachable == 0 {
			t.Errorf("%d degraded results, yet every chunk kept a live copy with retries to spare", n)
		}
	}
	for s, ld := range r.ShardLoads(nil) {
		if ld.Reads < 0 {
			t.Fatalf("shard %d: negative load accounting: %+v", s, ld)
		}
	}
}
