package experiments

import (
	"fmt"
	"io"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/shard"
	"repro/internal/workload"
)

// SkewRow is one placement cell of the skew study: tail latency and the
// per-shard load split of a Zipf workload over a replicated sharded
// layout.
type SkewRow struct {
	Layout string // "byte-balanced" or "heat-balanced" primary placement
	// P99Sec is the 99th-percentile per-query simulated time in seconds;
	// MeanSec the mean. ReadsStddev is the standard deviation of the
	// shards' served-read counts.
	P99Sec      float64
	MeanSec     float64
	ReadsStddev float64
}

// SkewResult is the skew study: what heat-aware primary balancing buys
// under a skewed workload.
type SkewResult struct {
	Shards, Replication int
	ZipfS               float64
	Rows                []SkewRow
}

// skewShards and skewReplication fix the fleet of the skew study: four
// machines, every chunk on two of them — the smallest layout where
// placement has room to move load.
const (
	skewShards      = 4
	skewReplication = 2
	skewZipfS       = 1.3
)

// Skew runs the heat-balance study on the SMALL granularity's SR chunks:
// a Zipf(s=1.3) workload — hot descriptors queried far more often than
// the tail — over a 4-shard R=2 layout, under byte-balanced Partition and
// heat-balanced PartitionHeated primary placement (heat taken from a
// disjoint Zipf sample). Answers are identical across the two cells —
// placement changes which shard owns a chunk, never what is read — so
// the rows isolate the simulated-time and load-split effects of the
// placement.
func Skew(lab *Lab) (*SkewResult, error) {
	g := &lab.Grans[0]
	chunks := g.SRChunks
	dims := lab.Coll.Dims()

	sample, err := workload.Zipf(lab.Coll, lab.Cfg.Queries, skewZipfS, lab.Cfg.Seed+11)
	if err != nil {
		return nil, err
	}
	queries, err := workload.Zipf(lab.Coll, lab.Cfg.Queries, skewZipfS, lab.Cfg.Seed+12)
	if err != nil {
		return nil, err
	}
	heat := shard.Heat(chunks, sample, 0)

	res := &SkewResult{Shards: skewShards, Replication: skewReplication, ZipfS: skewZipfS}
	results := make([]search.Result, len(queries))
	for _, layout := range []struct {
		name      string
		partition func([]*cluster.Cluster, int, int, int, int, []float64) (*shard.Placement, error)
	}{
		{"byte-balanced", shard.PartitionReplicated},
		{"heat-balanced", shard.PartitionReplicatedHeated},
	} {
		placement, err := layout.partition(chunks, skewShards, skewReplication, dims, lab.Cfg.PageSize, heat)
		if err != nil {
			return nil, err
		}
		stores := make([]chunkfile.Store, skewShards)
		for s := range stores {
			idxs := append(append([]int(nil), placement.Primary[s]...), placement.Extra[s]...)
			stores[s] = chunkfile.NewMemStore(lab.Coll, shard.Select(chunks, idxs), lab.Cfg.PageSize)
		}
		router, err := shard.NewRouter(stores, placement, lab.Model, shard.RouterOptions{})
		if err != nil {
			return nil, err
		}
		err = router.RunBatch(queries, batchexec.Options{
			K: lab.Cfg.K, Stop: search.ChunkBudget(5), Overlap: lab.Cfg.Overlap,
		}, results)
		if err != nil {
			router.Close()
			return nil, err
		}
		loads := router.ShardLoads(nil)
		st := workload.Summarize(results)
		res.Rows = append(res.Rows, SkewRow{
			Layout:      layout.name,
			P99Sec:      workload.SimulatedQuantile(results, 0.99).Seconds(),
			MeanSec:     st.MeanSimulated(),
			ReadsStddev: workload.Stddev(workload.LoadReads(loads)),
		})
		if err := router.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render writes the skew study table.
func (r *SkewResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Skew study: Zipf(s=%.1f) workload, %d shards, R=%d\n",
		r.ZipfS, r.Shards, r.Replication)
	fmt.Fprintf(w, "%-14s %s\n", "layout", "p99s / means / reads-sd")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %.4f / %.4f / %.1f\n",
			row.Layout, row.P99Sec, row.MeanSec, row.ReadsStddev)
	}
}
