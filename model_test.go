package repro

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/descriptor"
	"repro/internal/multiquery"
	"repro/internal/simdisk"
	"repro/internal/vec"
)

// stackModel is a reference model of the whole query stack — facade,
// engine, walk and router — that shares none of its query code: it
// restates the paper's algorithm (§4.3) over a built index's layout, read
// from the build's clusters and placement, never from a store or a walk.
type stackModel struct {
	dims   int
	counts []int        // each shard's logical chunks
	chunks []modelChunk // the fleet's logical chunks, shard-major
}

// modelChunk is one logical chunk: its index entry, its rows, and
// whether any copy of it sits on a shard that is up.
type modelChunk struct {
	shard, bytes int
	centroid     Vector
	radius       float64
	ids          []ID
	rows         []Vector
	up           bool
}

// newStackModel lays out built's chunks, coll's rows in them, with the
// shards down[s] held down.
func newStackModel(coll *Collection, built *ShardedIndex, down []bool) *stackModel {
	p := built.placement
	m := &stackModel{dims: coll.Dims(), counts: p.NumPrimary}
	for s, part := range built.parts {
		for i, cl := range part[:p.NumPrimary[s]] {
			c := modelChunk{shard: s, centroid: cl.Centroid, radius: cl.Radius, up: !down[s],
				bytes: chunkfile.PaddedBytes(len(cl.Members), m.dims)}
			for _, loc := range p.Replicas[s][i] {
				c.up = c.up || !down[loc.Shard]
			}
			for _, pos := range cl.Members {
				c.ids, c.rows = append(c.ids, coll.IDAt(pos)), append(c.rows, coll.Vec(pos))
			}
			m.chunks = append(m.chunks, c)
		}
	}
	return m
}

// search is the reference outcome of q under opts' k, stop rule,
// discipline and overlap, priced on the calibrated 2005 model: the
// fleet's chunks ranked by centroid distance (ties to the lower fleet
// index) and walked in that order, each shard's charged by hand to its
// own simdisk.Pipeline. Each budget group — a shard, or the fleet under
// the global budget — applies the rule after each of its charges and,
// once it fires, passes over its later chunks. The neighbors are the k best rows read by (d², ID), and
// Exact is the certificate over the chunks left unread. search also
// returns every shard's clock after each of its charges.
func (m *stackModel) search(q Vector, opts SearchOptions) (Result, [][]time.Duration) {
	type ranked struct {
		c         *modelChunk
		g         int // budget group
		d2, bound float64
	}
	k, cost := cmp.Or(opts.K, 30), simdisk.Default2005()
	order, left, stopped := make([]ranked, len(m.chunks)), make([]int, len(m.counts)), make([]bool, len(m.counts))
	for i := range m.chunks {
		c := &m.chunks[i]
		d2 := vec.SquaredDistance(q, c.centroid)
		order[i] = ranked{c, c.shard, d2, max(0, math.Sqrt(d2)-c.radius)}
		if opts.GlobalBudget {
			order[i].g = 0
		}
		left[order[i].g]++
	}
	slices.SortStableFunc(order, func(a, b ranked) int { return cmp.Compare(a.d2, b.d2) })
	res := Result{PerMachine: make([]MachineCost, len(m.counts))}
	pipes, clocks := make([]*simdisk.Pipeline, len(m.counts)), make([][]time.Duration, len(m.counts))
	for s, n := range m.counts {
		init := cost.IndexReadTime(n, chunkfile.EntrySize(m.dims))
		pipes[s] = simdisk.NewPipeline(cost, opts.Overlap, init)
		res.IndexRead = max(res.IndexRead, init)
	}
	var seen []Neighbor // Dist holds d² until the end
	kth := func() float64 {
		slices.SortFunc(seen, func(a, b Neighbor) int { return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID)) })
		if len(seen) < k {
			return math.Inf(1)
		}
		return math.Sqrt(seen[k-1].Dist)
	}
	res.Simulated = res.IndexRead
	unread := math.Inf(1)
	for pos, r := range order {
		if stopped[r.g] {
			continue
		}
		left[r.g]--
		mc := &res.PerMachine[r.c.shard]
		if !r.c.up {
			res.ChunksSkipped++
			mc.ChunksSkipped++
			continue
		}
		for i, v := range r.c.rows {
			seen = append(seen, Neighbor{ID: r.c.ids[i], Dist: vec.SquaredDistance(q, v)})
		}
		clock := pipes[r.c.shard].Chunk(r.c.bytes, len(r.c.rows))
		clocks[r.c.shard] = append(clocks[r.c.shard], clock)
		res.Simulated = max(res.Simulated, clock)
		res.ChunksRead++
		mc.ChunksRead++
		if left[r.g] == 0 {
			continue
		}
		reads, at, later := mc.ChunksRead, clock, math.Inf(1)
		if opts.GlobalBudget {
			reads, at = res.ChunksRead, res.Simulated
		}
		for _, r2 := range order[pos+1:] {
			if r2.g == r.g {
				later = min(later, r2.bound)
			}
		}
		if opts.MaxChunks > 0 && reads >= opts.MaxChunks || opts.MaxTime > 0 && at >= opts.MaxTime ||
			opts.MaxChunks == 0 && opts.MaxTime == 0 && later > kth() {
			stopped[r.g], unread = true, min(unread, later)
		}
	}
	final := kth()
	for _, nb := range seen[:min(k, len(seen))] {
		res.Neighbors = append(res.Neighbors, Neighbor{ID: nb.ID, Dist: math.Sqrt(nb.Dist)})
	}
	for s, p := range pipes {
		res.PerMachine[s].Elapsed = p.Elapsed()
	}
	res.Degraded = res.ChunksSkipped > 0
	res.Exact = !res.Degraded && (math.IsInf(unread, 1) || unread > final)
	return res, clocks
}

// fuzzBases are the generated collections the draws start from.
var fuzzBases = sync.OnceValue(func() (colls []*Collection) {
	for i, n := range []int{300, 900, 2000, 300, 900, 2000} {
		colls = append(colls, GenerateCollection(n, int64(100+i)))
	}
	return colls
})

// withDuplicates copies base, appending a copy of about one row in 25
// under a new ID larger than any other — or, for half of them, giving
// the original the new ID and the copy the old one. It returns the
// duplicated rows.
func withDuplicates(base *Collection, rng *rand.Rand) (*Collection, []int) {
	coll, next := descriptor.NewCollection(base.Dims(), base.Len()), ID(0)
	for i := range base.Len() {
		next = max(next, base.IDAt(i)+1)
	}
	var twins []int
	var copies []ID
	for i := range base.Len() {
		id := base.IDAt(i)
		if rng.Intn(25) == 0 {
			other := next + ID(len(twins))
			if rng.Intn(2) == 0 {
				id, other = other, id
			}
			twins, copies = append(twins, i), append(copies, other)
		}
		coll.Append(id, base.Vec(i))
	}
	for j, i := range twins {
		coll.Append(copies[j], base.Vec(i))
	}
	return coll, twins
}

// FuzzStackVsModel draws one configuration of the whole stack per input
// and holds the real ShardedIndex to stackModel on every query: IDs,
// distances, ChunksRead, ChunksSkipped, Simulated, IndexRead, PerMachine,
// Exact and Degraded. ChunksRead stays within MaxReads, and meets it under
// a chunk budget when nothing is skipped. Each draw, and in parentheses
// the deleted tests whose property it now carries under that assertion:
//   - a collection with some rows duplicated under new IDs, so that only
//     the ID breaks their ties (TestCompletionMatchesScanOracle);
//   - a former and a chunk size (TestEndToEndFilePipeline, the BAG store
//     of TestCompletionIsExact);
//   - S from 1 to 5, some shards possibly empty (TestGlobalEmptyShards and
//     the empty-shard half of TestShardedEdgeCases), and R ≤ S;
//   - a stop rule: a chunk budget from 1 to chunks+1 or math.MaxInt, which
//     buys the nearest chunks only when they are read in rank order
//     (TestChunkBudgetStops, TestSearchApproxAndExact, TestRankingOrder);
//     a time budget 1 ns either side of a charge edge, a shard's clock
//     after one of its charges in the model's replay (TestTimeBudgetStops,
//     TestSearchTimeBudget); or run to completion (TestCompletionIsExact,
//     TestShardedIndexCompletionIsExact, TestShardedCompletionMatchesScanOracle,
//     TestGlobalCompletionMatchesScanOracle);
//   - the per-shard or the global budget discipline
//     (TestShardedIndexGlobalBudget, TestGlobalBudgetSpendsExactlyTotal,
//     TestGlobalBudgetMatchesUnshardedBudget);
//   - k: the default, 1 to 40, or more than the collection holds
//     (TestDefaults, TestBatchExactUnderfilledHeap); overlap on or off
//     (TestOverlapFaster). TestCustomModel's behaviour, a per-search cost
//     model, was removed: every search is priced on the 2005 model;
//   - the store: built in memory, or saved and reopened with no cache, a
//     thrashing cache or a resident one (TestCacheEquivalenceUnsharded,
//     TestCacheEquivalenceSharded, TestCachedRouterMatchesUncached, the
//     result comparisons of the three save/open round-trip tests, and
//     TestReplicatedSaveOpenRoundTrip: the reopened index keeps R, its
//     chunks and rows); its CacheStats report the cache's budget
//     (TestRouterCacheStatsAccounting) and, once a query reads, traffic;
//   - shards held down with MarkShardDown
//     (TestUnreplicatedIndexDegradesHonestly,
//     TestUnreplicatedKillDegradesToSurvivors,
//     TestReplicatedIndexSurvivesShardDown);
//   - the parallelism, and the call: single queries into one recycled
//     Result; a batch, then an empty one (TestSearchBatchIntoMatchesSearch,
//     TestSearchBatchMatchesSequential, TestSearchBatchEdges,
//     TestBatchMatchesSingleQuery, TestShardedBatchMatchesScatterSearch,
//     TestGlobalBatchMatchesGlobalSearch); a stream, each result checked at
//     its own callback, which fires once (TestRunStream); or a
//     multi-descriptor bag, against the model's results voted by
//     multiquery.Aggregate.
func FuzzStackVsModel(f *testing.F) {
	for seed := range int64(40) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(5)
		cfg := BuildConfig{
			Strategy:    []Strategy{StrategySRTree, StrategyRoundRobin, StrategyHybrid}[rng.Intn(3)],
			ChunkSize:   8 + rng.Intn(150),
			Replication: 1 + rng.Intn(shards),
			Seed:        seed,
		}
		base := rng.Intn(6)
		if rng.Intn(12) == 0 { // BAG's clustering is slow: few draws, on the smallest collections
			cfg.Strategy, base = StrategyBAG, base-base%3
		}
		coll, twins := withDuplicates(fuzzBases()[base], rng)
		built, err := BuildSharded(coll, cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer built.Close()
		sx, store := built, rng.Intn(4)
		cacheBytes := []int64{0, 0, 1 << 14, 64 << 20}[store]
		if store > 0 {
			dir := t.TempDir()
			if err = built.Save(dir); err == nil {
				sx, err = OpenShardedWith(dir, OpenConfig{CacheBytes: cacheBytes})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sx.Close()
		}
		down, nDown := make([]bool, shards), 0
		for s := range down {
			if down[s] = rng.Intn(6) == 0; down[s] {
				sx.MarkShardDown(s)
				nDown++
			}
		}
		model := newStackModel(coll, built, down)

		queries := make([]Vector, 1+rng.Intn(4))
		for i := range queries {
			queries[i] = coll.Vec(rng.Intn(coll.Len())).Clone()
			if len(twins) > 0 && rng.Intn(2) == 0 {
				queries[i] = coll.Vec(twins[rng.Intn(len(twins))])
			} else if rng.Intn(2) == 0 {
				for d := range queries[i] {
					queries[i][d] += float32(rng.NormFloat64() * 20)
				}
			}
		}
		call := rng.Intn(4) // single, batch, stream, multi
		opts := SearchOptions{
			K:            []int{0, 1 + rng.Intn(40), coll.Len() + 1 + rng.Intn(10)}[rng.Intn(3)],
			Overlap:      rng.Intn(2) == 0,
			GlobalBudget: rng.Intn(2) == 0,
		}
		switch rule := rng.Intn(5); {
		case rule < 2 || call == 3:
			opts.MaxChunks = 1 + rng.Intn(len(model.chunks)+1)
			if rng.Intn(4) == 0 {
				opts.MaxChunks = math.MaxInt
			}
		case rule < 4: // at a charge edge of one shard that reads
			replay := opts
			replay.MaxChunks, replay.GlobalBudget = math.MaxInt, false
			full, clocks := model.search(queries[0], replay)
			clocks = slices.DeleteFunc(clocks, func(c []time.Duration) bool { return len(c) == 0 })
			edge := full.IndexRead
			if len(clocks) > 0 {
				c := clocks[rng.Intn(len(clocks))]
				edge = c[rng.Intn(len(c))]
			}
			opts.MaxTime = max(1, edge+time.Duration(2*rng.Intn(2)-1))
		}
		modelOpts := opts
		if call == 3 {
			modelOpts.K, modelOpts.MaxChunks = cmp.Or(opts.K, DefaultMultiK), cmp.Or(opts.MaxChunks, DefaultMultiMaxChunks)
		}
		want := make([]Result, len(queries))
		for i, q := range queries {
			want[i], _ = model.search(q, modelOpts)
		}
		draw := fmt.Sprintf("seed %d: %+v on %d shards, store %d, down %v, call %d, %+v", seed, cfg, shards, store, down, call, opts)

		got := make([]Result, len(queries))
		bopts := BatchOptions{SearchOptions: opts, Parallelism: rng.Intn(5)}
		switch call {
		case 0:
			var res Result
			for i, q := range queries {
				if err = sx.SearchInto(q, opts, &res); err != nil {
					break
				}
				got[i] = res
				got[i].Neighbors, got[i].PerMachine = slices.Clone(res.Neighbors), slices.Clone(res.PerMachine)
			}
		case 1:
			if err = sx.SearchBatchInto(queries, bopts, got); err == nil {
				err = sx.SearchBatchInto(nil, bopts, nil) // an empty batch is a no-op
			}
		case 2:
			fired := make([]atomic.Int32, len(queries))
			err = sx.SearchBatchStream(queries, bopts, got, func(qi int) {
				if fired[qi].Add(1); !sameResult(&got[qi], &want[qi]) {
					t.Errorf("%s\nq%d at its callback: got %+v\nmodel %+v", draw, qi, got[qi], want[qi])
				}
			})
			for qi := range fired {
				if n := fired[qi].Load(); err == nil && n != 1 {
					t.Fatalf("%s\nq%d: callback fired %d times", draw, qi, n)
				}
			}
		case 3:
			weighted := rng.Intn(2) == 0
			var multi *MultiResult
			multi, err = sx.MultiSearch(queries, MultiSearchOptions{K: opts.K, MaxChunks: opts.MaxChunks, RankWeighted: weighted,
				Overlap: opts.Overlap, GlobalBudget: opts.GlobalBudget})
			if wantMulti := multiquery.Aggregate(want, weighted); err == nil && !reflect.DeepEqual(multi, wantMulti) {
				t.Fatalf("%s\ngot %+v\nmodel %+v", draw, multi, wantMulti)
			}
			got, opts = want, modelOpts // the bag matched whole, so its searches are the model's: bound those
		}
		if err != nil {
			t.Fatalf("%s: %v", draw, err)
		}
		bound := sx.MaxReads(opts)
		for i := range got {
			if !sameResult(&got[i], &want[i]) {
				t.Fatalf("%s\nq%d: got %+v\nmodel %+v", draw, i, got[i], want[i])
			}
			if got[i].ChunksRead > bound || opts.MaxChunks > 0 && got[i].ChunksSkipped == 0 && got[i].ChunksRead != bound {
				t.Fatalf("%s\nq%d: read %d chunks, MaxReads %d", draw, i, got[i].ChunksRead, bound)
			}
		}
		if st := sx.CacheStats(); st.Enabled != (cacheBytes > 0) || st.MaxBytes != cacheBytes || st.Enabled && got[0].ChunksRead > 0 && st.Hits+st.Misses == 0 ||
			sx.ShardsDown() != nDown || sx.Replication() != cfg.Replication || sx.Chunks() != len(model.chunks) || sx.Len() != built.Len() {
			t.Fatalf("%s: cache stats %+v; %d shards down, R=%d, %d chunks of %d rows", draw, st, sx.ShardsDown(), sx.Replication(), sx.Chunks(), sx.Len())
		}
	})
}

// sameResult reports whether got is want, Wall (real time) aside.
func sameResult(got, want *Result) bool {
	g, w := *got, *want
	if !slices.Equal(g.Neighbors, w.Neighbors) || !slices.Equal(g.PerMachine, w.PerMachine) {
		return false
	}
	g.Neighbors, g.PerMachine, g.Wall, w.Neighbors, w.PerMachine = nil, nil, 0, nil, nil
	return reflect.DeepEqual(g, w)
}
