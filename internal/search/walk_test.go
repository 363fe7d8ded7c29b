package search_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/knn"
	"repro/internal/scan"
	. "repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/simdisk"
	"repro/internal/vec"
)

// stepStore spreads a store's chunks over simulated machines and injects
// read stalls and unavailable chunks.
type stepStore struct {
	chunkfile.Store
	owner    []int32
	machines int
	stall    map[int]time.Duration
	down     map[int]bool
}

func (s *stepStore) Layout() ([]int32, int) { return s.owner, s.machines }

func (s *stepStore) ReadChunk(i int, d *chunkfile.Data) error {
	d.Stall = s.stall[i]
	if s.down[i] {
		return fmt.Errorf("chunk %d: %w", i, chunkfile.ErrUnavailable)
	}
	return s.Store.ReadChunk(i, d)
}

// walkCase is one walk to check: the store spread round-robin over
// machines, with a stalled read and unavailable chunks at the given rank
// positions (those past the end of the ranking are ignored).
type walkCase struct {
	machines, k int
	overlap     bool
	stop        StopRule
	stallPos    int // -1 = none
	down        []int
}

// charge is one traced chunk charge: the event's Ordinal and ChunkIndex.
type charge struct{ ordinal, chunk int }

// naiveRank is the full rank order computed without the package's ranking
// code: one pairwise distance per centroid, then a sort of everything.
func naiveRank(q vec.Vector, metas []chunkfile.Meta) []RankedChunk {
	order := make([]RankedChunk, len(metas))
	for i, m := range metas {
		d2 := vec.SquaredDistance(q, m.Centroid)
		order[i] = RankedChunk{Idx: i, D2: d2, Bound: max(0, math.Sqrt(d2)-m.Radius)}
	}
	slices.SortFunc(order, func(a, b RankedChunk) int {
		if a.D2 != b.D2 {
			return int(math.Copysign(1, a.D2-b.D2))
		}
		return a.Idx - b.Idx
	})
	return order
}

// checkWalk runs one query through the real walk and through a replay
// that shares none of its machinery — the fully sorted naive order, one
// simdisk.Pipeline per machine charged by hand, the remaining bound as a
// plain minimum over everything unread, pairwise distances into a heap —
// and requires the same neighbours, counts, clock, certificate and trace.
// A walk that orders only a prefix of its ranking must be
// indistinguishable from this one, which orders all of it. It returns the
// walk's result.
func checkWalk(t *testing.T, name string, base chunkfile.Store, q vec.Vector, tc walkCase) *Result {
	t.Helper()
	metas, dims, model := base.Meta(), base.Dims(), simdisk.Default2005()
	n := len(metas)
	order := naiveRank(q, metas)
	st := &stepStore{Store: base, owner: make([]int32, n), machines: tc.machines, stall: map[int]time.Duration{}, down: map[int]bool{}}
	pipes := make([]*simdisk.Pipeline, tc.machines)
	for m := range pipes {
		count := 0
		for i := m; i < n; i += tc.machines {
			st.owner[i] = int32(m)
			count++
		}
		pipes[m] = simdisk.NewPipeline(model, tc.overlap, model.IndexReadTime(count, chunkfile.EntrySize(dims)))
	}
	if tc.stallPos >= 0 {
		st.stall[order[tc.stallPos].Idx] = 7 * time.Millisecond
	}
	for _, pos := range tc.down {
		if pos < n {
			st.down[order[pos].Idx] = true
			st.stall[order[pos].Idx] = 3 * time.Millisecond
		}
	}

	var traced []charge
	res, err := searchOne(batchexec.New(st, model), q, batchexec.Options{K: tc.k, Stop: tc.stop, Overlap: tc.overlap, GlobalBudget: true,
		Trace: func(_ int, ev Event) { traced = append(traced, charge{ev.Ordinal, ev.ChunkIndex}) }})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	var want Result
	var charged []charge
	for _, p := range pipes {
		want.Simulated = max(want.Simulated, p.Elapsed())
	}
	heap := knn.NewHeap(tc.k)
	var data chunkfile.Data
	for pos, rc := range order {
		p := pipes[st.owner[rc.Idx]]
		p.Stall(st.stall[rc.Idx])
		want.Simulated = max(want.Simulated, p.Elapsed())
		if st.down[rc.Idx] {
			want.ChunksSkipped++
			continue
		}
		if err := base.ReadChunk(rc.Idx, &data); err != nil {
			t.Fatal(err)
		}
		for r, id := range data.IDs {
			heap.OfferSquared(id, vec.SquaredDistance(q, data.Vec(r)))
		}
		want.Simulated = max(want.Simulated, p.Chunk(metas[rc.Idx].Bytes, metas[rc.Idx].Count))
		want.ChunksRead++
		charged = append(charged, charge{pos + 1, rc.Idx})
		remaining := math.Inf(1)
		for _, later := range order[pos+1:] {
			remaining = min(remaining, later.Bound)
		}
		last := pos+1 == n
		want.Exact = last
		if tc.stop.Done(want.ChunksRead, want.Simulated, heap.Kth(), remaining) {
			want.Exact = remaining > heap.Kth() || last
			break
		}
	}
	want.Degraded = want.ChunksSkipped > 0
	want.Exact = want.Exact && !want.Degraded
	want.Neighbors = heap.Sorted()

	if res.Simulated != want.Simulated || res.ChunksRead != want.ChunksRead || res.ChunksSkipped != want.ChunksSkipped ||
		res.Degraded != want.Degraded || res.Exact != want.Exact || len(res.PerMachine) != tc.machines {
		t.Errorf("%s: elapsed %v read %d skipped %d degraded %v exact %v on %d machines, replay %v %d %d %v %v on %d",
			name, res.Simulated, res.ChunksRead, res.ChunksSkipped, res.Degraded, res.Exact, len(res.PerMachine),
			want.Simulated, want.ChunksRead, want.ChunksSkipped, want.Degraded, want.Exact, tc.machines)
	}
	if !slices.Equal(traced, charged) {
		t.Errorf("%s: charged %v, replay %v", name, traced, charged)
	}
	if !slices.Equal(res.Neighbors, want.Neighbors) {
		t.Errorf("%s: neighbors differ from the replay's", name)
	}
	for m, mc := range res.PerMachine {
		if mc.Elapsed != pipes[m].Elapsed() {
			t.Errorf("%s machine %d: clock %v, replay %v", name, m, mc.Elapsed, pipes[m].Elapsed())
		}
	}
	return res
}

// TestWalkStep is the oracle of the per-(query, chunk) step the engine
// takes for every query, checked by checkWalk against values computed
// without it. The named rows pin what each rule promises; the sweep after
// them holds the walk's sorted-prefix ranking to the fully sorted one at
// every prefix length, through every extension, across ties.
func TestWalkStep(t *testing.T) {
	f := getFixture(t, 31)
	n, q := len(f.srSt.Meta()), f.coll.Vec(123)
	if got := RankChunks(q, f.tieSt.Meta(), nil); !slices.Equal(got, naiveRank(q, f.tieSt.Meta())) {
		t.Error("RankChunks differs from the naive full order")
	}
	for _, tc := range []struct {
		name string
		walkCase
		read             int // -1 = whatever the rule decides
		exact, useOracle bool
	}{
		{"one machine", walkCase{1, 10, false, ChunkBudget(4), -1, nil}, 4, false, false},
		{"one machine overlapped", walkCase{1, 10, true, ChunkBudget(4), -1, nil}, 4, false, false},
		{"three machines", walkCase{3, 10, false, ChunkBudget(4), -1, nil}, 4, false, false},
		{"three machines overlapped", walkCase{3, 10, true, ChunkBudget(4), -1, nil}, 4, false, false},
		{"budget beyond the index", walkCase{3, 10, true, ChunkBudget(n + 5), -1, nil}, n, true, true},
		{"stalled read", walkCase{3, 10, false, ChunkBudget(4), 1, nil}, 4, false, false},
		{"unavailable chunk spends no budget", walkCase{3, 10, true, ChunkBudget(4), 2, []int{0}}, 4, false, false},
		{"unavailable chunk is never exact", walkCase{1, 10, false, ToCompletion{}, -1, []int{0}}, -1, false, false},
		{"completion", walkCase{3, 10, true, ToCompletion{}, -1, nil}, -1, true, true},
		{"under-filled heap on the last chunk", walkCase{1, f.coll.Len() + 1, false, ChunkBudget(n), -1, nil}, n, true, false},
	} {
		res := checkWalk(t, tc.name, f.srSt, q, tc.walkCase)
		if tc.read >= 0 && res.ChunksRead != tc.read || res.Exact != tc.exact {
			t.Errorf("%s: read %d exact %v, want %d %v", tc.name, res.ChunksRead, res.Exact, tc.read, tc.exact)
		}
		if tc.useOracle && !slices.Equal(res.Neighbors, scan.KNN(f.coll, q, tc.k)) {
			t.Errorf("%s: neighbors differ from the scan oracle", tc.name)
		}
	}

	// The sweep. tieSt holds every chunk twice, so each centroid distance
	// occurs at two chunk indexes and the order is decided by index at
	// every rank. A budget B orders exactly B chunks up front; chunks down
	// at ranks B-1 and B (inside and just past that prefix) push the walk
	// beyond it. The other rules start at initialPrefix and double.
	tn := len(f.tieSt.Meta())
	var rules []StopRule
	for b := 1; b <= tn+1; b++ {
		rules = append(rules, ChunkBudget(b))
	}
	complete := checkWalk(t, "tied completion", f.tieSt, q, walkCase{1, 10, false, ToCompletion{}, -1, nil})
	rules = append(rules, ToCompletion{}, TimeBudget(0), TimeBudget(complete.Simulated/3), TimeBudget(complete.Simulated), TimeBudget(time.Hour))
	for _, stop := range rules {
		edge := InitialPrefix
		if b, ok := stop.(ChunkBudget); ok {
			edge = int(b)
		}
		for _, down := range [][]int{nil, {edge - 1, edge}, {0, edge, 2*edge - 1, 2 * edge, tn - 1}} {
			for _, machines := range []int{1, 3} {
				name := fmt.Sprintf("tied %v down %v on %d machines", stop, down, machines)
				checkWalk(t, name, f.tieSt, q, walkCase{machines, 10, machines > 1, stop, -1, down})
			}
		}
	}
}

// subStore is the chunks idx of a store (ascending store indexes) as a
// store of their own, reading through it.
type subStore struct {
	chunkfile.Store
	idx       []int
	metas     []chunkfile.Meta
	centroids []float32
}

func newSubStore(st chunkfile.Store, idx []int) *subStore {
	sub := &subStore{Store: st, idx: idx}
	for _, i := range idx {
		sub.metas = append(sub.metas, st.Meta()[i])
	}
	sub.centroids = chunkfile.LayoutCentroids(sub.metas, st.Dims())
	return sub
}

func (s *subStore) Meta() []chunkfile.Meta                   { return s.metas }
func (s *subStore) Centroids() []float32                     { return s.centroids }
func (s *subStore) ReadChunk(i int, d *chunkfile.Data) error { return s.Store.ReadChunk(s.idx[i], d) }

// FuzzWalkPerMachine checks the per-machine budget discipline against its
// definition: a walk over chunks owned by 1–5 machines (some possibly
// empty, some chunks unavailable or stalled) must match independent
// single-machine walks over each machine's own chunks, their neighbor
// lists merged. Under the chunk and time budgets — which ignore the k-th
// distance — everything matches byte for byte, machine by machine. Run to
// completion the answers match reading no more chunks, the fleet's k-th
// distance being never larger than one machine's. Either way an
// independent Exact implies Exact, and an undegraded Exact is exactly the
// certificate: every chunk left unread bounded above the k-th distance.
func FuzzWalkPerMachine(f *testing.F) {
	f.Add(uint8(40), uint8(2), int64(1), uint8(0), uint8(3), false, uint8(10))
	f.Add(uint8(7), uint8(4), int64(2), uint8(1), uint8(90), true, uint8(30))
	f.Add(uint8(60), uint8(4), int64(3), uint8(2), uint8(0), true, uint8(25))
	f.Add(uint8(3), uint8(0), int64(4), uint8(2), uint8(0), false, uint8(39))
	f.Add(uint8(50), uint8(3), int64(5), uint8(0), uint8(255), true, uint8(12))
	f.Fuzz(func(t *testing.T, nRaw, machinesRaw uint8, seed int64, rule, budget uint8, overlap bool, kRaw uint8) {
		fx := getFixture(t, 31)
		base := fx.srSt
		n, machines, k := 1+int(nRaw)%len(base.Meta()), 1+int(machinesRaw)%5, 1+int(kRaw)%40
		rng := rand.New(rand.NewSource(seed))
		st := &stepStore{Store: newSubStore(base, rangeN(n)), owner: make([]int32, n), machines: machines,
			stall: map[int]time.Duration{}, down: map[int]bool{}}
		own := make([][]int, machines)
		for i := range st.owner {
			m := rng.Intn(machines)
			st.owner[i], own[m] = int32(m), append(own[m], i)
			if rng.Intn(6) == 0 {
				st.stall[i] = time.Duration(1+rng.Intn(5)) * time.Millisecond
			}
			st.down[i] = rng.Intn(10) == 0
		}
		var stop StopRule = ToCompletion{}
		switch rule % 3 {
		case 0:
			stop = ChunkBudget(1 + budget%8)
			if budget == math.MaxUint8 { // unlimited: no product with the machine count may overflow
				stop = ChunkBudget(math.MaxInt)
			}
		case 1:
			stop = TimeBudget(time.Duration(budget) * time.Millisecond)
		}
		q := fx.coll.Vec(rng.Intn(fx.coll.Len()))
		model := simdisk.Default2005()
		opts := batchexec.Options{K: k, Stop: stop, Overlap: overlap}

		var charged []int
		traced := opts
		traced.Trace = func(_ int, ev Event) { charged = append(charged, ev.ChunkIndex) }
		got, err := searchOne(batchexec.New(st, model), q, traced)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{Exact: true}
		rows := make([]*Result, machines)
		for m := range rows {
			if rows[m], err = searchOne(batchexec.New(newSubStore(st, own[m]), model), q, opts); err != nil {
				t.Fatal(err)
			}
			want.Neighbors = append(want.Neighbors, rows[m].Neighbors...)
			want.ChunksRead += rows[m].ChunksRead
			want.ChunksSkipped += rows[m].ChunksSkipped
			want.Simulated = max(want.Simulated, rows[m].Simulated)
			want.IndexRead = max(want.IndexRead, rows[m].IndexRead)
			want.Exact = want.Exact && rows[m].Exact
			want.Degraded = want.Degraded || rows[m].Degraded
		}
		slices.SortFunc(want.Neighbors, func(a, b Neighbor) int {
			if knn.Less(a.Dist, a.ID, b.Dist, b.ID) {
				return -1
			}
			return 1
		})
		want.Neighbors = want.Neighbors[:min(k, len(want.Neighbors))]

		if !slices.Equal(got.Neighbors, want.Neighbors) || got.IndexRead != want.IndexRead || want.Exact && !got.Exact ||
			len(got.PerMachine) != machines {
			t.Fatalf("%v: got %+v, independent machines %+v", stop, got, want)
		}
		if !got.Degraded {
			kth, unread := math.Inf(1), math.Inf(1)
			if len(got.Neighbors) == k {
				kth = got.Neighbors[k-1].Dist
			}
			for _, rc := range naiveRank(q, st.Meta()) {
				if !slices.Contains(charged, rc.Idx) {
					unread = min(unread, rc.Bound)
				}
			}
			if got.Exact != (math.IsInf(unread, 1) || unread > kth) {
				t.Fatalf("%v: Exact %v, but the lowest unread bound is %v against k-th distance %v", stop, got.Exact, unread, kth)
			}
		}
		if _, completion := stop.(ToCompletion); completion {
			if got.ChunksRead > want.ChunksRead {
				t.Fatalf("completion read %d chunks, independent machines %d", got.ChunksRead, want.ChunksRead)
			}
			return
		}
		if got.ChunksRead != want.ChunksRead || got.ChunksSkipped != want.ChunksSkipped || got.Simulated != want.Simulated ||
			got.Degraded != want.Degraded {
			t.Fatalf("%v: got %+v, independent machines %+v", stop, got, want)
		}
		for m, mc := range got.PerMachine {
			if mc != (MachineCost{ChunksRead: rows[m].ChunksRead, ChunksSkipped: rows[m].ChunksSkipped, Elapsed: rows[m].Simulated}) {
				t.Fatalf("%v machine %d: %+v, its own walk %+v", stop, m, mc, rows[m])
			}
		}
	})
}

// rangeN returns 0, 1, …, n-1.
func rangeN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
