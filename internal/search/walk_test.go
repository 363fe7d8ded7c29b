package search

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/scan"
	"repro/internal/simdisk"
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

// TestWalkStep is the oracle of the per-(query, chunk) step every
// execution path shares, checked against values computed without it:
// Elapsed against a hand replay of simdisk.Pipeline over the ranked
// order, the traced charges, the budget arithmetic, and the certificate.
func TestWalkStep(t *testing.T) {
	f := getFixture(t, 31)
	metas, dims := f.srSt.Meta(), f.srSt.Dims()
	n, q, model := len(metas), f.coll.Vec(123), simdisk.Default2005()
	ranked := RankChunks(q, metas, nil)
	for _, tc := range []struct {
		name             string
		machines, k      int
		overlap          bool
		stop             StopRule
		stallPos, down   int // rank positions; -1 = none
		read             int // -1 = whatever the rule decides
		exact, useOracle bool
	}{
		{"one machine", 1, 10, false, ChunkBudget(4), -1, -1, 4, false, false},
		{"one machine overlapped", 1, 10, true, ChunkBudget(4), -1, -1, 4, false, false},
		{"three machines", 3, 10, false, ChunkBudget(4), -1, -1, 4, false, false},
		{"three machines overlapped", 3, 10, true, ChunkBudget(4), -1, -1, 4, false, false},
		{"budget beyond the index", 3, 10, true, ChunkBudget(n + 5), -1, -1, n, true, true},
		{"stalled read", 3, 10, false, ChunkBudget(4), 1, -1, 4, false, false},
		{"unavailable chunk spends no budget", 3, 10, true, ChunkBudget(4), 2, 0, 4, false, false},
		{"unavailable chunk is never exact", 1, 10, false, ToCompletion{}, -1, 0, -1, false, false},
		{"completion", 3, 10, true, ToCompletion{}, -1, -1, -1, true, true},
		{"under-filled heap on the last chunk", 1, f.coll.Len() + 1, false, ChunkBudget(n), -1, -1, n, true, false},
	} {
		st := &stepStore{Store: f.srSt, owner: make([]int32, n), stall: map[int]time.Duration{}, down: map[int]bool{}}
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
			st.stall[ranked[tc.stallPos].Idx] = 7 * time.Millisecond
		}
		if tc.down >= 0 {
			st.down[ranked[tc.down].Idx] = true
			st.stall[ranked[tc.down].Idx] = 3 * time.Millisecond
		}
		var traced []int
		res, err := New(st, model).Search(q, Options{K: tc.k, Stop: tc.stop, Overlap: tc.overlap,
			Trace: func(ev Event) { traced = append(traced, ev.ChunkIndex) }})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var want time.Duration
		var charged []int
		for _, p := range pipes {
			want = max(want, p.Elapsed())
		}
		for _, rc := range ranked[:res.ChunksRead+res.ChunksSkipped] {
			p := pipes[st.owner[rc.Idx]]
			p.Stall(st.stall[rc.Idx])
			if want = max(want, p.Elapsed()); !st.down[rc.Idx] {
				want = max(want, p.Chunk(metas[rc.Idx].Bytes, metas[rc.Idx].Count))
				charged = append(charged, rc.Idx)
			}
		}
		skipped := len(st.down)
		if res.Elapsed != want || !slices.Equal(traced, charged) || tc.read >= 0 && res.ChunksRead != tc.read ||
			res.ChunksSkipped != skipped || len(res.PerMachine) != tc.machines || res.Degraded != (skipped > 0) || res.Exact != tc.exact {
			t.Errorf("%s: elapsed %v (replay %v), charged %v (replay %v), read %d skipped %d degraded %v exact %v",
				tc.name, res.Elapsed, want, traced, charged, res.ChunksRead, res.ChunksSkipped, res.Degraded, res.Exact)
		}
		for m, mc := range res.PerMachine {
			if mc.Elapsed != pipes[m].Elapsed() {
				t.Errorf("%s machine %d: clock %v, replay %v", tc.name, m, mc.Elapsed, pipes[m].Elapsed())
			}
		}
		if tc.useOracle && !slices.Equal(res.Neighbors, scan.KNN(f.coll, q, tc.k)) {
			t.Errorf("%s: neighbors differ from the scan oracle", tc.name)
		}
	}
}
