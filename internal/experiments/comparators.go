package experiments

import (
	"fmt"
	"io"

	"repro/internal/chunkfile"
	"repro/internal/descriptor"
	"repro/internal/knn"
	"repro/internal/metrics"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/shard"
	"repro/internal/simdisk"
	"repro/internal/vafile"
)

// ComparatorRow is one (method, parameter) point of the related-work
// comparison: average recall within the top k and average simulated
// seconds on the 2005 cost model.
type ComparatorRow struct {
	Method string
	Param  string
	Recall float64
	SimSec float64
}

// ComparatorsResult is an extension experiment beyond the paper: the
// chunk-search architecture, unsharded and sharded four ways, against the
// VA-File (exact and approximate), one of the related-work systems the
// paper discusses (§6), all costed on the same simulated 2005 hardware.
type ComparatorsResult struct {
	Workload string
	K        int
	Rows     []ComparatorRow
}

// Comparators runs the comparison on the SMALL granularity's retained
// collection with the DQ workload.
func Comparators(lab *Lab) (*ComparatorsResult, error) {
	g := lab.Grans[0]
	coll := g.Retained
	k := lab.Cfg.K
	queries := lab.DQ
	gt := lab.Truth(0, "DQ", queries)
	res := &ComparatorsResult{Workload: "DQ", K: k}

	truthSets := make([]map[descriptor.ID]struct{}, len(queries))
	for qi := range queries {
		set := make(map[descriptor.ID]struct{}, k)
		for _, id := range gt.IDs[qi] {
			set[id] = struct{}{}
		}
		truthSets[qi] = set
	}
	recallOf := func(qi int, res []knn.Neighbor) float64 {
		return float64(countFound(truthSets[qi], res)) / float64(k)
	}

	// Chunk search (SR-tree chunks) at several chunk budgets, run as one
	// workload batch per budget through the chunk-major engine (results
	// are byte-identical to per-query searches; the batch path reuses one
	// results arena across the whole sweep).
	lab.Cfg.logf("comparators: chunk search...")
	eng := batchexec.New(g.SRStore)
	chunkResults := make([]search.Result, len(queries))
	for _, budget := range []int{1, 2, 5, 10, 20} {
		err := eng.Run(queries, batchexec.Options{
			K: k, Stop: search.ChunkBudget(budget), Overlap: true,
		}, chunkResults)
		if err != nil {
			return nil, err
		}
		var recall, secs float64
		for qi := range chunkResults {
			recall += recallOf(qi, chunkResults[qi].Neighbors)
			secs += chunkResults[qi].Simulated.Seconds()
		}
		res.Rows = append(res.Rows, ComparatorRow{
			Method: "chunk-search/SR",
			Param:  fmt.Sprintf("chunks=%d", budget),
			Recall: recall / float64(len(queries)),
			SimSec: secs / float64(len(queries)),
		})
	}

	// Sharded chunk search: the same SR chunks partitioned across four
	// simulated machines (balanced by padded chunk bytes), searched with
	// the per-shard budget. Simulated time is the max
	// over the shards — they run in parallel — so the rows show what the
	// ROADMAP's sharding direction buys: response time drops while the
	// summed chunk work (the hardware bill) rises.
	lab.Cfg.logf("comparators: sharded chunk search...")
	const comparatorShards = 4
	placement, err := shard.PartitionReplicated(g.SRChunks, comparatorShards, 1, lab.Coll.Dims())
	if err != nil {
		return nil, err
	}
	shardStores := make([]chunkfile.Store, comparatorShards)
	for s, idxs := range placement.Primary {
		shardStores[s] = chunkfile.NewMemStore(lab.Coll, shard.Select(g.SRChunks, idxs))
	}
	router, err := shard.NewRouter(shardStores, placement, shard.RouterOptions{})
	if err != nil {
		return nil, err
	}
	sharded := batchexec.New(router)
	for _, budget := range []int{1, 2, 5} {
		err := sharded.Run(queries, batchexec.Options{
			K: k, Stop: search.ChunkBudget(budget), Overlap: true,
		}, chunkResults)
		if err != nil {
			return nil, err
		}
		var recall, secs float64
		for qi := range chunkResults {
			recall += recallOf(qi, chunkResults[qi].Neighbors)
			secs += chunkResults[qi].Simulated.Seconds()
		}
		res.Rows = append(res.Rows, ComparatorRow{
			Method: fmt.Sprintf("chunk-search/SR-%dshard", comparatorShards),
			Param:  fmt.Sprintf("chunks=%dx%d", comparatorShards, budget),
			Recall: recall / float64(len(queries)),
			SimSec: secs / float64(len(queries)),
		})
	}

	// Global-budget sharded chunk search: the same four machines, but the
	// stop rule spends one total budget across them in global
	// centroid-rank order. At the matched total budget (4×b chunks) the
	// global rows read the same chunks the unsharded engine would — same
	// recall as the single-machine rows above at budget 4b — while the
	// response time stays sharded (the chunks land on four parallel
	// machines). This is the gap the per-shard rows leave open: per-shard
	// budget b pays the 4×b bill for the *per-shard* top chunks, global
	// budget 4b pays the same bill for the *globally* best chunks.
	lab.Cfg.logf("comparators: sharded chunk search (global budget)...")
	for _, budget := range []int{4, 8, 20} {
		err := sharded.Run(queries, batchexec.Options{
			K: k, Stop: search.ChunkBudget(budget), Overlap: true, GlobalBudget: true,
		}, chunkResults)
		if err != nil {
			return nil, err
		}
		var recall, secs float64
		for qi := range chunkResults {
			recall += recallOf(qi, chunkResults[qi].Neighbors)
			secs += chunkResults[qi].Simulated.Seconds()
		}
		res.Rows = append(res.Rows, ComparatorRow{
			Method: fmt.Sprintf("chunk-search/SR-%dshard-global", comparatorShards),
			Param:  fmt.Sprintf("chunks=%d total", budget),
			Recall: recall / float64(len(queries)),
			SimSec: secs / float64(len(queries)),
		})
	}

	// VA-File: exact and visit-budgeted. Simulated cost: one sequential
	// scan of the approximation file plus a bound computation per
	// descriptor (phase 1), then one random read and one distance per
	// visited candidate (phase 2).
	lab.Cfg.logf("comparators: VA-File...")
	va, err := vafile.Build(coll, 5)
	if err != nil {
		return nil, err
	}
	model := simdisk.Default2005()
	vaCost := func(st vafile.Stats) float64 {
		phase1 := model.ReadTime(va.ApproximationBytes()) + model.CPUTime(coll.Len())
		phase2 := 0.0
		for v := 0; v < st.Visited; v++ {
			phase2 += model.ReadTime(descriptor.EncodedSize).Seconds()
		}
		return phase1.Seconds() + phase2 + model.CPUTime(st.Visited).Seconds()
	}
	for _, budget := range []int{0, 30, 100} {
		var recall, secs float64
		name := "exact"
		if budget > 0 {
			name = fmt.Sprintf("visits=%d", budget)
		}
		for qi, q := range queries {
			nb, st, err := va.Search(q, k, vafile.Options{VisitBudget: budget})
			if err != nil {
				return nil, err
			}
			recall += recallOf(qi, nb)
			secs += vaCost(st)
		}
		res.Rows = append(res.Rows, ComparatorRow{
			Method: "va-file",
			Param:  name,
			Recall: recall / float64(len(queries)),
			SimSec: secs / float64(len(queries)),
		})
	}

	return res, nil
}

// Render writes the comparison table.
func (r *ComparatorsResult) Render(w io.Writer) {
	headers := []string{"Method", "Parameter", fmt.Sprintf("Recall@%d", r.K), "Sim time (s)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Method, row.Param,
			fmt.Sprintf("%.3f", row.Recall),
			fmt.Sprintf("%.3f", row.SimSec),
		})
	}
	metrics.RenderTable(w, "Extension: related-work comparators on the 2005 cost model ("+r.Workload+")", headers, rows)
}
