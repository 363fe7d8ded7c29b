package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/chunkfile"
	"repro/internal/metrics"
	"repro/internal/srtree"
)

// Figure67Result reproduces Figure 6 (DQ) or Figure 7 (SQ): the time to
// find n nearest neighbors as a function of the SR-tree chunk size, over a
// log-spaced sweep of chunk sizes (the paper builds 16 chunk indexes from
// 100 to 100,000 descriptors per chunk).
type Figure67Result struct {
	Title      string
	Workload   string
	ChunkSizes []int
	Neighbors  []int                // the n values plotted (paper: 1,10,20,25,28,30)
	Series     map[string][]float64 // "n neighbors" -> seconds per chunk size
	Order      []string
}

// ChunkSizeSweep returns the paper's 16 log-spaced chunk sizes, clipped so
// a chunk never exceeds half the collection.
func ChunkSizeSweep(points, minSize, maxSize, collectionSize int) []int {
	if maxSize > collectionSize/2 {
		maxSize = collectionSize / 2
	}
	if maxSize < minSize {
		maxSize = minSize
	}
	out := make([]int, 0, points)
	lmin, lmax := math.Log(float64(minSize)), math.Log(float64(maxSize))
	prev := 0
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		s := int(math.Round(math.Exp(lmin + f*(lmax-lmin))))
		if s <= prev {
			s = prev + 1
		}
		out = append(out, s)
		prev = s
	}
	return out
}

// Figure67 runs Experiment 2 (§5.6) on the given workload: SR-tree chunk
// indexes over the SMALL retained collection (the paper uses the 4,471,532
// retained descriptors) for each chunk size in the sweep. With no
// neighbor counts it plots the paper's counts up to the lab's k; a count
// outside 1..k is an error.
func Figure67(lab *Lab, workloadName string, chunkSizes []int, neighbors []int) (*Figure67Result, error) {
	if len(lab.Grans) == 0 {
		return nil, fmt.Errorf("experiments: lab has no granularities")
	}
	g := lab.Grans[0] // SMALL: the granularity whose retained set the paper reuses
	queries, err := lab.workloadByName(workloadName)
	if err != nil {
		return nil, err
	}
	if len(chunkSizes) == 0 {
		chunkSizes = ChunkSizeSweep(16, 100, 100000, len(g.RetainedIdx))
	}
	if len(neighbors) == 0 {
		neighbors = slices.DeleteFunc([]int{1, 10, 20, 25, 28, 30}, func(n int) bool { return n > lab.Cfg.K })
	}
	res := &Figure67Result{
		Workload:   workloadName,
		ChunkSizes: chunkSizes,
		Neighbors:  neighbors,
		Series:     map[string][]float64{},
	}
	if workloadName == "DQ" {
		res.Title = "Figure 6: Effect of different chunk sizes (DQ)"
	} else {
		res.Title = "Figure 7: Effect of different chunk sizes (SQ)"
	}
	for _, n := range neighbors {
		if n < 1 || n > lab.Cfg.K {
			return nil, fmt.Errorf("experiments: neighbor count %d outside 1..k=%d", n, lab.Cfg.K)
		}
		name := fmt.Sprintf("%d neighbors", n)
		res.Order = append(res.Order, name)
		res.Series[name] = make([]float64, len(chunkSizes))
	}
	gt := lab.Truth(0, workloadName, queries)

	for si, size := range chunkSizes {
		lab.Cfg.logf("figure 6/7 (%s): chunk size %d (%d/%d)...", workloadName, size, si+1, len(chunkSizes))
		chunks, err := srtree.Chunks(lab.Coll, g.RetainedIdx, size)
		if err != nil {
			return nil, err
		}
		store := chunkfile.NewMemStore(lab.Coll, chunks)
		traces, err := lab.runTraces(store, queries, gt)
		if err != nil {
			return nil, err
		}
		times := metrics.TimeToFind(traces, lab.Cfg.K)
		for _, n := range neighbors {
			res.Series[fmt.Sprintf("%d neighbors", n)][si] = times[n-1]
		}
	}
	return res, nil
}

// Render writes the sweep columns and an ASCII sketch with log x.
func (r *Figure67Result) Render(w io.Writer) {
	xs := make([]float64, len(r.ChunkSizes))
	for i, s := range r.ChunkSizes {
		xs[i] = float64(s)
	}
	metrics.RenderSeries(w, r.Title, "chunk size", xs, r.Order, r.Series)
	metrics.Plot(w, r.Title+" [seconds]", xs, r.Order, r.Series, true)
}
