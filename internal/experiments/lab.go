// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), plus the build-time comparison and a set of
// ablations. See DESIGN.md §4 for the experiment index.
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/bag"
	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/imagegen"
	"repro/internal/scan"
	"repro/internal/srtree"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Config scopes an experimental run. The defaults reproduce the paper at
// 1:50 collection scale with the paper's absolute chunk sizes, which keeps
// the per-chunk timing behaviour (Figures 4-7) in the paper's own units.
type Config struct {
	N           int   // collection size (paper: 5,017,298)
	Queries     int   // queries per workload (paper: 1,000)
	K           int   // neighbors, and the quality cutoff (paper: 30)
	TargetSizes []int // mean chunk sizes per granularity, ascending (paper: 947/1711/2486)
	Names       []string
	Overlap     bool      // overlap I/O and CPU in the simulated pipeline
	Log         io.Writer // progress log; nil silences
}

// The lab's fixed parameters.
const (
	labSeed = 42   // master seed
	labMPI  = 25   // BAG maximum possible increment
	sqTrim  = 0.05 // SQ per-dimension trim (paper: 0.05)
)

// DefaultConfig returns the standard configuration, honoring the REPRO_N
// and REPRO_QUERIES environment variables.
func DefaultConfig() Config {
	n := envInt("REPRO_N", 100000)
	q := envInt("REPRO_QUERIES", 150)
	return Config{
		N:           n,
		Queries:     q,
		K:           30,
		TargetSizes: []int{947, 1711, 2486},
		Names:       []string{"SMALL", "MEDIUM", "LARGE"},
		Overlap:     true,
	}
}

func envInt(key string, def int) int {
	if s := os.Getenv(key); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// Granularity bundles the paper's per-row artifacts: the BAG clustering at
// one threshold, and the SR-tree chunk index built over the same retained
// descriptors with a matched uniform chunk size (§5.2 protocol).
type Granularity struct {
	Name       string
	TargetSize int

	Snap        bag.Snapshot
	RetainedIdx []int                  // indexes into Lab.Coll
	Retained    *descriptor.Collection // the retained subset (ground-truth oracle)

	BagChunks []*cluster.Cluster
	SRChunks  []*cluster.Cluster
	SRLeafCap int

	BagStore *chunkfile.MemStore
	SRStore  *chunkfile.MemStore

	BagBuild time.Duration // cumulative BAG time until this snapshot
	SRBuild  time.Duration
}

// Lab holds everything the experiments share: the collection, the two
// workloads, and one Granularity per target chunk size.
type Lab struct {
	Cfg     Config
	Dataset *imagegen.Dataset
	Coll    *descriptor.Collection
	DQ, SQ  []vec.Vector
	Grans   []Granularity

	truthCache map[truthKey]*scan.GroundTruth
}

type truthKey struct {
	gran     int
	workload string
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// NewLab generates the collection, the workloads and all chunk indexes.
// This is the expensive shared setup; every experiment below consumes it.
func NewLab(cfg Config) (*Lab, error) {
	if len(cfg.TargetSizes) == 0 || len(cfg.TargetSizes) != len(cfg.Names) {
		return nil, fmt.Errorf("experiments: TargetSizes/Names misconfigured")
	}
	for i := 1; i < len(cfg.TargetSizes); i++ {
		if cfg.TargetSizes[i] <= cfg.TargetSizes[i-1] {
			return nil, fmt.Errorf("experiments: TargetSizes must ascend")
		}
	}

	cfg.logf("generating %d descriptors (seed %d)...", cfg.N, labSeed)
	ds, err := imagegen.Generate(imagegen.DefaultConfig(cfg.N, labSeed))
	if err != nil {
		return nil, err
	}
	coll := ds.Collection
	lab := &Lab{
		Cfg:        cfg,
		Dataset:    ds,
		Coll:       coll,
		truthCache: map[truthKey]*scan.GroundTruth{},
	}

	cfg.logf("generating workloads (%d queries each)...", cfg.Queries)
	lab.DQ, err = workload.DQ(coll, cfg.Queries, labSeed+1)
	if err != nil {
		return nil, err
	}
	lab.SQ, err = workload.SQ(coll, cfg.Queries, sqTrim, labSeed+2)
	if err != nil {
		return nil, err
	}

	// One BAG run, snapshotted at each granularity (paper §5.2: "each
	// clustering was generated from the other in succession").
	bcfg := bag.DefaultConfig(coll.Len(), cfg.TargetSizes...)
	bcfg.MPI = labMPI
	bcfg.Seed = labSeed + 3
	bagStart := time.Now()
	passClock := map[int]time.Duration{}
	bcfg.Progress = func(pass, clusters int) {
		passClock[pass] = time.Since(bagStart)
		if pass%20 == 0 {
			cfg.logf("  bag pass %d: %d clusters (%.1fs)", pass, clusters, time.Since(bagStart).Seconds())
		}
	}
	cfg.logf("running BAG clustering (thresholds %v)...", bcfg.Thresholds)
	snaps, err := bag.Run(coll, bcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: BAG: %w", err)
	}

	for gi, snap := range snaps {
		g := Granularity{
			Name:       cfg.Names[gi],
			TargetSize: cfg.TargetSizes[gi],
			Snap:       snap,
			BagChunks:  snap.Clusters,
			BagBuild:   passClock[snap.Passes],
		}
		for _, c := range snap.Clusters {
			g.RetainedIdx = append(g.RetainedIdx, c.Members...)
		}
		g.Retained = coll.Subset(g.RetainedIdx)

		// The SR leaf capacity matches the measured mean BAG chunk size,
		// exactly the paper's protocol ("chunks of uniform size roughly
		// equal to the average size of the BAG clusters").
		mean := cluster.Summarize(snap.Clusters).MeanSize
		g.SRLeafCap = int(math.Round(mean))
		if g.SRLeafCap < 1 {
			g.SRLeafCap = 1
		}
		srStart := time.Now()
		g.SRChunks, err = srtree.Chunks(coll, g.RetainedIdx, g.SRLeafCap)
		if err != nil {
			return nil, err
		}
		g.SRBuild = time.Since(srStart)

		g.BagStore = chunkfile.NewMemStore(coll, g.BagChunks)
		g.SRStore = chunkfile.NewMemStore(coll, g.SRChunks)
		lab.Grans = append(lab.Grans, g)
		cfg.logf("granularity %s: bag %d chunks (mean %.0f), sr %d chunks (cap %d), outliers %.1f%%",
			g.Name, len(g.BagChunks), mean, len(g.SRChunks), g.SRLeafCap, snap.OutlierFraction()*100)
	}
	return lab, nil
}

// Truth returns (building on first use) the exact top-K ground truth for
// the given granularity and workload, computed by sequential scan over the
// retained subset (§5.4).
func (l *Lab) Truth(gran int, name string, queries []vec.Vector) *scan.GroundTruth {
	key := truthKey{gran, name}
	if gt, ok := l.truthCache[key]; ok {
		return gt
	}
	l.Cfg.logf("computing ground truth (%s, %s)...", l.Grans[gran].Name, name)
	gt := scan.Compute(l.Grans[gran].Retained, queries, l.Cfg.K)
	l.truthCache[key] = gt
	return gt
}

// Workloads returns the paper's two workloads in presentation order.
func (l *Lab) Workloads() []NamedWorkload {
	return []NamedWorkload{{"DQ", l.DQ}, {"SQ", l.SQ}}
}

// NamedWorkload pairs a workload with its paper name.
type NamedWorkload struct {
	Name    string
	Queries []vec.Vector
}

// Strategy identifies one chunk-forming strategy of a granularity.
type Strategy struct {
	Name  string
	Store chunkfile.Store
}

// Strategies returns the two paper strategies for granularity gi.
func (l *Lab) Strategies(gi int) []Strategy {
	g := l.Grans[gi]
	return []Strategy{
		{"BAG", g.BagStore},
		{"SR", g.SRStore},
	}
}
