package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/bag"
	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/roundrobin"
	"repro/internal/scan"
	"repro/internal/srtree"
)

// AblationOverlapResult quantifies the benefit of overlapping I/O and CPU
// (§1.1 motivates uniform chunks with exactly this overlap) by running
// Table 2's completion measurement under both pipeline models.
type AblationOverlapResult struct {
	Rows []AblationOverlapRow
}

// AblationOverlapRow is one index's completion time under both models.
type AblationOverlapRow struct {
	Index             string
	OverlapSec        float64
	SerialSec         float64
	SpeedupPct        float64
	MeanChunkSizeDesc float64
}

// AblationOverlap measures overlapped vs serial completion on the DQ
// workload for every index.
func AblationOverlap(lab *Lab) (*AblationOverlapResult, error) {
	res := &AblationOverlapResult{}
	for gi, g := range lab.Grans {
		gt := lab.Truth(gi, "DQ", lab.DQ)
		for _, st := range lab.Strategies(gi) {
			var secs [2]float64
			for mi, overlap := range []bool{true, false} {
				saved := lab.Cfg.Overlap
				lab.Cfg.Overlap = overlap
				traces, err := lab.runTraces(st.Store, lab.DQ, gt)
				lab.Cfg.Overlap = saved
				if err != nil {
					return nil, err
				}
				secs[mi] = metrics.MeanCompletion(traces)
			}
			var meanSize float64
			if st.Name == "BAG" {
				meanSize = cluster.Summarize(g.BagChunks).MeanSize
			} else {
				meanSize = cluster.Summarize(g.SRChunks).MeanSize
			}
			res.Rows = append(res.Rows, AblationOverlapRow{
				Index:             st.Name + " / " + g.Name,
				OverlapSec:        secs[0],
				SerialSec:         secs[1],
				SpeedupPct:        (secs[1] - secs[0]) / secs[1] * 100,
				MeanChunkSizeDesc: meanSize,
			})
		}
	}
	return res, nil
}

// Render writes the overlap ablation table.
func (r *AblationOverlapResult) Render(w io.Writer) {
	headers := []string{"Index", "Overlapped (s)", "Serial (s)", "Saved %"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Index,
			fmt.Sprintf("%.2f", row.OverlapSec),
			fmt.Sprintf("%.2f", row.SerialSec),
			fmt.Sprintf("%.1f", row.SpeedupPct),
		})
	}
	metrics.RenderTable(w, "Ablation: I/O-CPU overlap vs serial pipeline (DQ completion)", headers, rows)
}

// AblationStrategiesResult extends Figure 2/4 with the strategies the
// paper discusses but does not measure: round-robin chunking (§1.1
// strawman) and the uniform-size-first hybrid clustering proposed as
// future work (§7).
type AblationStrategiesResult struct {
	Chunks *CurveResult // Figure-2 axes
	Times  *CurveResult // Figure-4 axes
}

// AblationStrategies runs the extra strategies on the SMALL granularity's
// retained set, alongside the paper's two, on the DQ workload.
func AblationStrategies(lab *Lab) (*AblationStrategiesResult, error) {
	g := lab.Grans[0]
	gt := lab.Truth(0, "DQ", lab.DQ)
	meanSize := int(cluster.Summarize(g.BagChunks).MeanSize)
	if meanSize < 1 {
		meanSize = 1
	}

	rr, err := roundrobin.Chunks(lab.Coll, g.RetainedIdx, meanSize)
	if err != nil {
		return nil, err
	}
	hy, err := hybrid.Chunks(lab.Coll, g.RetainedIdx, hybrid.Config{ChunkSize: meanSize, Seed: labSeed})
	if err != nil {
		return nil, err
	}
	stores := []Strategy{
		{"BAG", g.BagStore},
		{"SR", g.SRStore},
		{"RR", chunkfile.NewMemStore(lab.Coll, rr)},
		{"HYBRID", chunkfile.NewMemStore(lab.Coll, hy)},
	}

	chunksRes := &CurveResult{
		Title:    "Ablation: chunks to find neighbors, all strategies (DQ, " + g.Name + ")",
		Workload: "DQ", YLabel: "chunks read", K: lab.Cfg.K, Series: map[string][]float64{},
	}
	timesRes := &CurveResult{
		Title:    "Ablation: time to find neighbors, all strategies (DQ, " + g.Name + ")",
		Workload: "DQ", YLabel: "wall time (simulated seconds)", K: lab.Cfg.K, Series: map[string][]float64{},
	}
	for _, st := range stores {
		traces, err := lab.runTraces(st.Store, lab.DQ, gt)
		if err != nil {
			return nil, err
		}
		chunksRes.Series[st.Name] = metrics.ChunksToFind(traces, lab.Cfg.K)
		timesRes.Series[st.Name] = metrics.TimeToFind(traces, lab.Cfg.K)
		chunksRes.Order = append(chunksRes.Order, st.Name)
		timesRes.Order = append(timesRes.Order, st.Name)
	}
	return &AblationStrategiesResult{Chunks: chunksRes, Times: timesRes}, nil
}

// Render writes both curve sets.
func (r *AblationStrategiesResult) Render(w io.Writer) {
	r.Chunks.Render(w)
	r.Times.Render(w)
}

// AblationNaiveBagResult compares the faithful O(C²)-per-pass BAG with the
// VP-tree-accelerated variant on a subsample, validating the substitution
// argument of DESIGN.md §2.
type AblationNaiveBagResult struct {
	SampleN        int
	NaiveClusters  int
	AccelClusters  int
	NaiveOutlierP  float64
	AccelOutlierP  float64
	NaiveMeanSize  float64
	AccelMeanSize  float64
	NaiveBuildTime time.Duration
	AccelBuildTime time.Duration
}

// AblationNaiveBag runs both variants on a deterministic subsample of the
// lab collection.
func AblationNaiveBag(lab *Lab, sampleN int) (*AblationNaiveBagResult, error) {
	if sampleN <= 0 || sampleN > lab.Coll.Len() {
		sampleN = 4000
	}
	idx := make([]int, 0, sampleN)
	stride := lab.Coll.Len() / sampleN
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < lab.Coll.Len() && len(idx) < sampleN; i += stride {
		idx = append(idx, i)
	}
	sub := lab.Coll.Subset(idx)

	target := sampleN / 40
	if target < 4 {
		target = 4
	}
	base := bag.DefaultConfig(sub.Len(), sub.Len()/target)
	base.MPI = labMPI
	base.MaxPasses = 500
	base.Seed = labSeed

	res := &AblationNaiveBagResult{SampleN: sub.Len()}

	naive := base
	naive.Accelerated = false
	start := time.Now()
	ns, err := bag.Run(sub, naive)
	if err != nil {
		return nil, fmt.Errorf("naive bag: %w", err)
	}
	res.NaiveBuildTime = time.Since(start)

	accel := base
	accel.Accelerated = true
	start = time.Now()
	as, err := bag.Run(sub, accel)
	if err != nil {
		return nil, fmt.Errorf("accelerated bag: %w", err)
	}
	res.AccelBuildTime = time.Since(start)

	nl, al := ns[len(ns)-1], as[len(as)-1]
	res.NaiveClusters = len(nl.Clusters)
	res.AccelClusters = len(al.Clusters)
	res.NaiveOutlierP = nl.OutlierFraction() * 100
	res.AccelOutlierP = al.OutlierFraction() * 100
	res.NaiveMeanSize = cluster.Summarize(nl.Clusters).MeanSize
	res.AccelMeanSize = cluster.Summarize(al.Clusters).MeanSize
	return res, nil
}

// Render writes the comparison.
func (r *AblationNaiveBagResult) Render(w io.Writer) {
	headers := []string{"Variant", "Clusters", "Mean size", "Outliers %", "Build time"}
	rows := [][]string{
		{"naive (paper)", fmt.Sprintf("%d", r.NaiveClusters), fmt.Sprintf("%.0f", r.NaiveMeanSize),
			fmt.Sprintf("%.1f", r.NaiveOutlierP), wallf("%v", r.NaiveBuildTime.Round(time.Millisecond))},
		{"accelerated", fmt.Sprintf("%d", r.AccelClusters), fmt.Sprintf("%.0f", r.AccelMeanSize),
			fmt.Sprintf("%.1f", r.AccelOutlierP), wallf("%v", r.AccelBuildTime.Round(time.Millisecond))},
	}
	metrics.RenderTable(w, fmt.Sprintf("Ablation: naive vs accelerated BAG (%d-descriptor sample)", r.SampleN), headers, rows)
}

// AblationNormOutlierResult reproduces the paper's §5.2 remark: building
// the SR-tree index after the *simpler* norm-threshold outlier removal
// "gave almost identical results" to using BAG's outlier set.
type AblationNormOutlierResult struct {
	Gran         string
	NormCut      float64
	BagRetained  int
	NormRetained int
	// Chunks-to-find curves on DQ for the two SR variants.
	Curves *CurveResult
}

// AblationNormOutlier builds an SR index over a norm-filtered set sized to
// discard the same fraction as BAG did, and compares Figure-2 curves.
func AblationNormOutlier(lab *Lab) (*AblationNormOutlierResult, error) {
	g := lab.Grans[0]
	// Pick the norm cut so the discarded fraction matches BAG's.
	norms := make([]float64, lab.Coll.Len())
	for i := range norms {
		norms[i] = lab.Coll.Vec(i).Norm()
	}
	sorted := append([]float64(nil), norms...)
	sort.Float64s(sorted)
	keepFrac := 1 - g.Snap.OutlierFraction()
	cutIdx := int(keepFrac * float64(len(sorted)))
	if cutIdx >= len(sorted) {
		cutIdx = len(sorted) - 1
	}
	cut := sorted[cutIdx]
	var retained []int
	for i, n := range norms {
		if n <= cut {
			retained = append(retained, i)
		}
	}

	normChunks, err := srtree.Chunks(lab.Coll, retained, g.SRLeafCap)
	if err != nil {
		return nil, err
	}
	normStore := chunkfile.NewMemStore(lab.Coll, normChunks)
	// Each variant is measured against the exact top-k of its own retained
	// set, as the paper measured each index against its own scan (§5.4);
	// the retained sets differ slightly between outlier schemes.
	normTruth := scan.Compute(lab.Coll.Subset(retained), lab.DQ, lab.Cfg.K)

	curves := &CurveResult{
		Title:    "Ablation: SR with BAG outliers vs norm-threshold outliers (DQ, " + g.Name + ")",
		Workload: "DQ", YLabel: "chunks read", K: lab.Cfg.K, Series: map[string][]float64{},
	}
	variants := []struct {
		Strategy
		truth *scan.GroundTruth
	}{
		{Strategy{"SR/bag-outliers", g.SRStore}, lab.Truth(0, "DQ", lab.DQ)},
		{Strategy{"SR/norm-outliers", normStore}, normTruth},
	}
	for _, st := range variants {
		traces, err := lab.runTraces(st.Store, lab.DQ, st.truth)
		if err != nil {
			return nil, err
		}
		curves.Series[st.Name] = metrics.ChunksToFind(traces, lab.Cfg.K)
		curves.Order = append(curves.Order, st.Name)
	}
	return &AblationNormOutlierResult{
		Gran:         g.Name,
		NormCut:      cut,
		BagRetained:  len(g.RetainedIdx),
		NormRetained: len(retained),
		Curves:       curves,
	}, nil
}

// Render writes the comparison.
func (r *AblationNormOutlierResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Norm-threshold outlier removal: cut=%.1f, retained %d (BAG retained %d)\n",
		r.NormCut, r.NormRetained, r.BagRetained)
	r.Curves.Render(w)
}
