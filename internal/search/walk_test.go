package search_test

import (
	"fmt"
	"math"
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
	owner []int32
	stall map[int]time.Duration
	down  map[int]bool
}

func (s *stepStore) Layout() ([]int32, int) { return s.owner, int(slices.Max(s.owner)) + 1 }

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
	st := &stepStore{Store: base, owner: make([]int32, n), stall: map[int]time.Duration{}, down: map[int]bool{}}
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
	res, err := searchOne(batchexec.New(st, model), q, batchexec.Options{K: tc.k, Stop: tc.stop, Overlap: tc.overlap,
		Trace: func(_ int, ev Event) { traced = append(traced, charge{ev.Ordinal, ev.ChunkIndex}) }})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	var want Result
	var charged []charge
	for _, p := range pipes {
		want.Elapsed = max(want.Elapsed, p.Elapsed())
	}
	heap := knn.NewHeap(tc.k)
	var data chunkfile.Data
	for pos, rc := range order {
		p := pipes[st.owner[rc.Idx]]
		p.Stall(st.stall[rc.Idx])
		want.Elapsed = max(want.Elapsed, p.Elapsed())
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
		want.Elapsed = max(want.Elapsed, p.Chunk(metas[rc.Idx].Bytes, metas[rc.Idx].Count))
		want.ChunksRead++
		charged = append(charged, charge{pos + 1, rc.Idx})
		remaining := math.Inf(1)
		for _, later := range order[pos+1:] {
			remaining = min(remaining, later.Bound)
		}
		last := pos+1 == n
		want.Exact = last
		if tc.stop.Done(want.ChunksRead, want.Elapsed, heap.Kth(), remaining) {
			want.Exact = remaining > heap.Kth() || last
			break
		}
	}
	want.Degraded = want.ChunksSkipped > 0
	want.Exact = want.Exact && !want.Degraded
	want.Neighbors = heap.Sorted()

	if res.Elapsed != want.Elapsed || res.ChunksRead != want.ChunksRead || res.ChunksSkipped != want.ChunksSkipped ||
		res.Degraded != want.Degraded || res.Exact != want.Exact || len(res.PerMachine) != tc.machines {
		t.Errorf("%s: elapsed %v read %d skipped %d degraded %v exact %v on %d machines, replay %v %d %d %v %v on %d",
			name, res.Elapsed, res.ChunksRead, res.ChunksSkipped, res.Degraded, res.Exact, len(res.PerMachine),
			want.Elapsed, want.ChunksRead, want.ChunksSkipped, want.Degraded, want.Exact, tc.machines)
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
	rules = append(rules, ToCompletion{}, TimeBudget(0), TimeBudget(complete.Elapsed/3), TimeBudget(complete.Elapsed), TimeBudget(time.Hour))
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
