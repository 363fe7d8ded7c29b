package shard

import (
	"errors"
	"fmt"
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
	"repro/internal/vec"
)

// spreadRouterOver builds a replicated router over fresh MemStores of
// the same deterministic placement. Every call gets its own stores,
// cache, and load counters, so a spread-off and a spread-on router never
// share mutable state.
func spreadRouterOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, replication, pageSize int, opts RouterOptions) *Router {
	t.Helper()
	coll := ds.Collection
	p, err := PartitionReplicated(clusters, shards, replication, coll.Dims(), pageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		stores[s] = chunkfile.NewMemStore(coll, Select(clusters, physical), pageSize)
	}
	r, err := NewRouter(stores, p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSpreadReadsAnswerEquivalenceMatrix pins the spread-reads tentpole
// guarantee: with every shard healthy, turning the policy on changes
// nothing about the answers — neighbors, exactness, and ChunksRead are
// byte-identical to primary-only routing — across all three stop rules,
// both budget disciplines (per-shard and global), the batch path, the
// decoded-chunk cache on and off, and R ∈ {1, 2}. At R=1 there is only
// one copy of every chunk, so even the simulated time must come out
// exactly equal: the serve ledgers then bill precisely what the nominal
// pipelines bill.
func TestSpreadReadsAnswerEquivalenceMatrix(t *testing.T) {
	ds, clusters := fixture(t, 4000, 17, 130)
	coll := ds.Collection
	const shards, pageSize, k = 4, 4096, 20

	queryIdx := []int{3, 555, 1234, 3999}
	queries := make([]vec.Vector, len(queryIdx))
	for i, pos := range queryIdx {
		queries[i] = coll.Vec(pos)
	}

	for _, replication := range []int{1, 2} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			off := spreadRouterOver(t, ds, clusters, shards, replication, pageSize, RouterOptions{CacheBytes: cacheBytes})
			on := spreadRouterOver(t, ds, clusters, shards, replication, pageSize, RouterOptions{CacheBytes: cacheBytes, SpreadReads: true})
			if off.SpreadReads() || !on.SpreadReads() {
				t.Fatalf("R=%d cache %d: SpreadReads off=%v on=%v", replication, cacheBytes, off.SpreadReads(), on.SpreadReads())
			}
			for ri, stop := range stopRules() {
				for _, d := range disciplines {
					label := fmt.Sprintf("R=%d/cache %d/rule%d/%s", replication, cacheBytes, ri, d.name)
					opts := batchexec.Options{K: k, Stop: stop, GlobalBudget: d.global}
					for _, q := range queries {
						var want, got search.Result
						if err := one(off.RunBatch, q, opts, &want); err != nil {
							t.Fatal(err)
						}
						if err := one(on.RunBatch, q, opts, &got); err != nil {
							t.Fatal(err)
						}
						sameAnswer(t, label+"/search", &got, &want)
						if replication == 1 && got.Elapsed != want.Elapsed {
							t.Fatalf("%s/search: R=1 spread-on Elapsed %v != spread-off %v", label, got.Elapsed, want.Elapsed)
						}
					}

					want := make([]search.Result, len(queries))
					got := make([]search.Result, len(queries))
					if err := off.RunBatch(queries, opts, want); err != nil {
						t.Fatal(err)
					}
					if err := on.RunBatch(queries, opts, got); err != nil {
						t.Fatal(err)
					}
					for qi := range queries {
						g, w := &got[qi], &want[qi]
						sameAnswer(t, fmt.Sprintf("%s/batch q%d", label, qi), g, w)
						if replication == 1 && g.Elapsed != w.Elapsed {
							t.Fatalf("%s/batch q%d: R=1 spread-on Elapsed %v != spread-off %v", label, qi, g.Elapsed, w.Elapsed)
						}
					}
				}
			}
			if err := off.Close(); err != nil {
				t.Fatal(err)
			}
			if err := on.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpreadReadsSplitsLoad pins the point of the policy: under a
// replicated layout with spread reads on, a completion workload's served
// reads land on every shard's billed estimator (nonzero billed time on
// at least two shards), the total served-read count equals the total
// chunks read, and the billed split is visible through ShardLoads. The
// spread-off router, by contrast, bills nothing — the estimator only
// runs for spread routing decisions. Queries run as batches of one, where
// every charged chunk is one served read (a batch of many would read each
// chunk once for all the queries that want it).
func TestSpreadReadsSplitsLoad(t *testing.T) {
	ds, clusters := fixture(t, 4000, 17, 130)
	coll := ds.Collection
	const shards, pageSize, k = 4, 4096, 10

	queries := make([]vec.Vector, 24)
	for i := range queries {
		queries[i] = coll.Vec(i * 151)
	}

	for _, spread := range []bool{false, true} {
		r := spreadRouterOver(t, ds, clusters, shards, 2, pageSize, RouterOptions{SpreadReads: spread})
		total := 0
		var res search.Result
		for _, q := range queries {
			if err := one(r.RunBatch, q, batchexec.Options{K: k}, &res); err != nil {
				t.Fatal(err)
			}
			total += res.ChunksRead
		}
		loads := r.ShardLoads(nil)
		if len(loads) != shards {
			t.Fatalf("spread=%v: ShardLoads returned %d entries, want %d", spread, len(loads), shards)
		}
		var reads int64
		billedOn := 0
		for _, ld := range loads {
			reads += ld.Reads
			if ld.Billed > 0 {
				billedOn++
			}
		}
		if reads != int64(total) {
			t.Fatalf("spread=%v: ShardLoads reads %d != total ChunksRead %d", spread, reads, total)
		}
		if spread && billedOn < 2 {
			t.Fatalf("spread on: billed time on %d shards, want >= 2 (loads %+v)", billedOn, loads)
		}
		if !spread && billedOn != 0 {
			t.Fatalf("spread off: billed estimator ran on %d shards, want 0 (loads %+v)", billedOn, loads)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
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

// spreadFaultRouterOver is spreadRouterOver with fault injectors wrapped
// around the stores and an attempt log around each injector, for the
// failover composition tests.
func spreadFaultRouterOver(t testing.TB, ds *imagegen.Dataset, clusters []*cluster.Cluster, shards, replication, pageSize int, cfg faultstore.Config) (*Router, []*faultstore.Store, []*attemptLog) {
	t.Helper()
	coll := ds.Collection
	p, err := PartitionReplicated(clusters, shards, replication, coll.Dims(), pageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]chunkfile.Store, shards)
	faults := make([]*faultstore.Store, shards)
	logs := make([]*attemptLog, shards)
	for s := 0; s < shards; s++ {
		physical := append(append([]int(nil), p.Primary[s]...), p.Extra[s]...)
		faults[s] = faultstore.Wrap(chunkfile.NewMemStore(coll, Select(clusters, physical), pageSize), cfg)
		logs[s] = &attemptLog{Store: faults[s], failing: map[*chunkfile.Data]failedRun{}, exhausted: map[int]int{}}
		stores[s] = logs[s]
	}
	r, err := NewRouter(stores, p, nil, RouterOptions{SpreadReads: true})
	if err != nil {
		t.Fatal(err)
	}
	return r, faults, logs
}

// TestSpreadReadsKillAnyShardMatchesHealthy pins that the failover
// semantics of PR 6 compose unchanged with spread routing: with R=2 and
// spread reads on, killing any single shard still yields answers
// byte-identical to a healthy spread-off run — failure costs simulated
// time (the stall is billed to the owning machine), never answers.
func TestSpreadReadsKillAnyShardMatchesHealthy(t *testing.T) {
	ds, clusters := fixture(t, 4000, 17, 130)
	coll := ds.Collection
	const shards, pageSize, k = 4, 4096, 20

	healthy := spreadRouterOver(t, ds, clusters, shards, 2, pageSize, RouterOptions{})
	defer healthy.Close()
	queryIdx := []int{3, 555, 1234, 3999}
	rules := []search.StopRule{nil, search.ChunkBudget(6)}

	for kill := 0; kill < shards; kill++ {
		r, faults, _ := spreadFaultRouterOver(t, ds, clusters, shards, 2, pageSize, faultstore.Config{})
		faults[kill].Kill()
		var got, want search.Result
		for ri, stop := range rules {
			for _, d := range disciplines {
				opts := batchexec.Options{K: k, Stop: stop, GlobalBudget: d.global}
				for _, pos := range queryIdx {
					label := "kill " + strconv.Itoa(kill) + "/rule" + strconv.Itoa(ri) + "/" + d.name
					if err := one(healthy.RunBatch, coll.Vec(pos), opts, &want); err != nil {
						t.Fatal(err)
					}
					if err := one(r.RunBatch, coll.Vec(pos), opts, &got); err != nil {
						t.Fatal(err)
					}
					if got.Degraded || got.ChunksSkipped != 0 {
						t.Fatalf("%s q%d: degraded (skipped %d) despite live replicas", label, pos, got.ChunksSkipped)
					}
					sameAnswer(t, label, &got, &want)
				}
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpreadReadsConcurrentKillStress drives the spread-on failover path
// under -race: single queries race a batch workload on the same
// router while a shard dies mid-flight (with transient read faults and
// injected latency stirring the interleavings, pinned by
// REPRO_FAULT_SEED). Every query must complete without error, and
// degrade honestly: R=2 erases the dead shard, but a chunk whose only
// other copy fails all its retries is legitimately skipped, so a result
// may be Degraded only if the attempt logs show some chunk with every
// copy either on the dead shard or out of retries — and every result
// that is not must be the fault-free router's, byte for byte. The billed
// estimator's rollbacks must leave the load accounting consistent.
func TestSpreadReadsConcurrentKillStress(t *testing.T) {
	ds, clusters := fixture(t, 4000, 71, 130)
	coll := ds.Collection
	const shards, pageSize, k, killed = 4, 4096, 15, 1

	healthy := spreadRouterOver(t, ds, clusters, shards, 2, pageSize, RouterOptions{})
	defer healthy.Close()
	r, faults, logs := spreadFaultRouterOver(t, ds, clusters, shards, 2, pageSize,
		faultstore.Config{Seed: faultSeed(t), TransientProb: 0.05, Latency: 50 * time.Microsecond})
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
				if err := one(r.RunBatch, q, batchexec.Options{K: k}, &res); err != nil {
					t.Errorf("query goroutine %d: %v", g, err)
					return
				}
				if res.Degraded {
					degraded.Add(1)
					continue
				}
				if err := one(healthy.RunBatch, q, batchexec.Options{K: k}, &want); err != nil {
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
		done <- r.RunBatch(queries, batchexec.Options{K: k}, results)
	}()
	faults[killed].Kill()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	want := make([]search.Result, len(queries))
	if err := healthy.RunBatch(queries, batchexec.Options{K: k}, want); err != nil {
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
		if ld.Reads < 0 || ld.Billed < 0 {
			t.Fatalf("shard %d: negative load accounting after rollbacks: %+v", s, ld)
		}
	}
}
