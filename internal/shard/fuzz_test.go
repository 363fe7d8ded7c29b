package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/imagegen"
)

// fuzzColl lazily builds the one small collection every fuzz iteration
// draws its cluster members from; the clusters themselves (sizes, shard
// and replication counts) are derived per-iteration from the fuzz
// inputs.
var fuzzFixture struct {
	once sync.Once
	coll *descriptor.Collection
}

func fuzzColl() *descriptor.Collection {
	fuzzFixture.once.Do(func() {
		ds := imagegen.MustGenerate(imagegen.DefaultConfig(512, 99))
		fuzzFixture.coll = ds.Collection
	})
	return fuzzFixture.coll
}

// fuzzClusters derives a random clustering from the fuzz inputs: cluster
// sizes and members come from a seeded rand.Rand, so the same inputs
// always reproduce the same case.
func fuzzClusters(nclRaw uint8, seed int64) []*cluster.Cluster {
	coll := fuzzColl()
	rng := rand.New(rand.NewSource(seed))
	ncl := 1 + int(nclRaw)%32
	clusters := make([]*cluster.Cluster, ncl)
	for i := range clusters {
		count := 1 + rng.Intn(40)
		members := make([]int, count)
		for m := range members {
			members[m] = rng.Intn(coll.Len())
		}
		clusters[i] = cluster.NewFromMembers(coll, members)
	}
	return clusters
}

// checkAssignment asserts the structural invariants every primary
// assignment must satisfy: each cluster appears on exactly one shard and
// each shard's list is strictly ascending (the order that keeps
// chunk-rank tie-breaks aligned with the unsharded index).
func checkAssignment(t *testing.T, assign [][]int, shards, ncl int) {
	t.Helper()
	if len(assign) != shards {
		t.Fatalf("assignment has %d shards, want %d", len(assign), shards)
	}
	seen := make([]bool, ncl)
	for s, idxs := range assign {
		for i, ci := range idxs {
			if ci < 0 || ci >= ncl {
				t.Fatalf("shard %d holds out-of-range cluster %d", s, ci)
			}
			if seen[ci] {
				t.Fatalf("cluster %d assigned twice", ci)
			}
			seen[ci] = true
			if i > 0 && idxs[i-1] >= ci {
				t.Fatalf("shard %d not strictly ascending: %v", s, idxs)
			}
		}
	}
	for ci, ok := range seen {
		if !ok {
			t.Fatalf("cluster %d unassigned", ci)
		}
	}
}

// FuzzPartitionReplicated fuzzes the replicated placement over random
// cluster counts, sizes, shard counts and replication factors:
// byte-balanced primaries with declustered replicas. It pins
// determinism; primaries that are the plain Partition, every cluster
// placed exactly once in ascending order; the 1-shard identity; the
// greedy LPT byte bound (no shard exceeds the mean padded bytes by more
// than one cluster's); R−1 replicas per cluster on distinct shards other
// than its primary, each resolving to the cluster in the holder's
// physical order; at R=2, the replicas of each shard's primaries spread
// over the other shards within ±1 of each other; and that Place on the
// primary counts alone gives back the build's replicas, without the
// build-side state.
func FuzzPartitionReplicated(f *testing.F) {
	f.Add(uint8(7), uint8(3), uint8(1), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(uint8(31), uint8(7), uint8(2), int64(2005))
	f.Add(uint8(12), uint8(4), uint8(0), int64(5))
	f.Add(uint8(3), uint8(6), uint8(2), int64(-9)) // fewer clusters than shards
	f.Add(uint8(20), uint8(2), uint8(9), int64(-3))
	// Unreplicated (R=1) cases: primaries alone.
	f.Add(uint8(7), uint8(3), uint8(0), int64(1))
	f.Add(uint8(31), uint8(7), uint8(0), int64(2005))
	f.Add(uint8(12), uint8(1), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, nclRaw, shardsRaw, repRaw uint8, seed int64) {
		clusters := fuzzClusters(nclRaw, seed)
		shards := 1 + int(shardsRaw)%8
		rep := 1 + int(repRaw)%3
		if rep > shards {
			rep = shards
		}
		dims := fuzzColl().Dims()

		p, err := PartitionReplicated(clusters, shards, rep, dims)
		if err != nil {
			t.Fatal(err)
		}
		again, err := PartitionReplicated(clusters, shards, rep, dims)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatal("PartitionReplicated is not deterministic")
		}
		assign, err := partition(clusters, shards, dims)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Primary, assign) {
			t.Fatal("primaries differ from the plain Partition")
		}
		checkAssignment(t, p.Primary, shards, len(clusters))
		if p.R != rep {
			t.Fatalf("placement R %d, want %d", p.R, rep)
		}

		if shards == 1 {
			for ci, got := range p.Primary[0] {
				if got != ci {
					t.Fatalf("1-shard partition is not the identity at %d: %v", ci, p.Primary[0])
				}
			}
		}

		// Greedy LPT bound: when a shard received its last cluster it
		// was the lightest, so no shard ends more than one cluster's
		// padded bytes above the mean.
		loads := make([]int64, shards)
		var total, maxUnit int64
		for s, idxs := range p.Primary {
			for _, ci := range idxs {
				b := int64(chunkfile.PaddedBytes(clusters[ci].Count(), dims))
				loads[s] += b
				total += b
				maxUnit = max(maxUnit, b)
			}
		}
		for s, load := range loads {
			if load*int64(shards) > total+maxUnit*int64(shards) {
				t.Fatalf("shard %d holds %d bytes, over the mean %d plus one cluster's %d",
					s, load, total/int64(shards), maxUnit)
			}
		}

		for s := range p.Primary {
			if p.NumPrimary[s] != len(p.Primary[s]) {
				t.Fatalf("shard %d NumPrimary %d != %d primaries", s, p.NumPrimary[s], len(p.Primary[s]))
			}
			for i, ci := range p.Primary[s] {
				locs := p.Replicas[s][i]
				if len(locs) != rep-1 {
					t.Fatalf("cluster %d: %d replicas, want %d", ci, len(locs), rep-1)
				}
				onShard := map[int32]bool{int32(s): true}
				for _, loc := range locs {
					if onShard[loc.Shard] {
						t.Fatalf("cluster %d: copies co-located on shard %d", ci, loc.Shard)
					}
					onShard[loc.Shard] = true
					ti := int(loc.Chunk) - p.NumPrimary[loc.Shard]
					if ti < 0 || ti >= len(p.Extra[loc.Shard]) {
						t.Fatalf("cluster %d: replica chunk %d outside shard %d's extras", ci, loc.Chunk, loc.Shard)
					}
					if p.Extra[loc.Shard][ti] != ci {
						t.Fatalf("cluster %d: replica slot holds cluster %d", ci, p.Extra[loc.Shard][ti])
					}
				}
			}
		}

		if rep == 2 {
			for s := range p.Replicas {
				count := make([]int, shards)
				for _, locs := range p.Replicas[s] {
					count[locs[0].Shard]++
				}
				lo, hi := len(clusters), 0
				for o, n := range count {
					if o != s {
						lo, hi = min(lo, n), max(hi, n)
					}
				}
				if hi-lo > 1 {
					t.Fatalf("shard %d's replicas spread unevenly over the other shards: %v", s, count)
				}
			}
		}

		// The layout follows from R and the primary counts alone: what a
		// saved index's manifest records and its open lays out again.
		again, err = Place(p.NumPrimary, rep)
		if err != nil {
			t.Fatal(err)
		}
		if again.R != p.R || !reflect.DeepEqual(again.NumPrimary, p.NumPrimary) || !reflect.DeepEqual(again.Replicas, p.Replicas) {
			t.Fatal("Place on the build's primary counts differs from the build's replicas")
		}
		if again.Primary != nil || again.Extra != nil {
			t.Fatal("Place carries build-side state")
		}
	})
}

// manifestOf is the manifest Save writes for placement p: R, and per
// shard its primary count and its physical count, primaries plus the
// replicas placed on it.
func manifestOf(p *Placement, dims int) *chunkfile.Manifest {
	m := &chunkfile.Manifest{Dims: dims, Replication: p.R}
	for s, n := range p.NumPrimary {
		m.Shards = append(m.Shards, chunkfile.ShardFiles{
			ChunkFile: fmt.Sprintf("shard-%d.chunk", s),
			IndexFile: fmt.Sprintf("shard-%d.idx", s),
			Chunks:    n + len(p.Extra[s]),
			Primary:   n,
		})
	}
	return m
}

// loadPlacement is the placement half of opening a saved directory:
// read the manifest and lay its replicas out again from R and the
// primary counts.
func loadPlacement(path string) (*Placement, *chunkfile.Manifest, error) {
	m, err := chunkfile.ReadManifest(path)
	if err != nil {
		return nil, nil, err
	}
	numPrimary := make([]int, len(m.Shards))
	for s, sf := range m.Shards {
		numPrimary[s] = sf.Primary
	}
	p, err := Place(numPrimary, m.Replication)
	return p, m, err
}

// physicalCounts returns each shard's physical chunk count under p: its
// primaries plus the replicas p places on it.
func physicalCounts(p *Placement) []int {
	n := slices.Clone(p.NumPrimary)
	for _, lists := range p.Replicas {
		for _, locs := range lists {
			for _, loc := range locs {
				n[loc.Shard]++
			}
		}
	}
	return n
}

// FuzzLoadPlacement reads mutated manifest bytes and lays the placement
// out from them, as opening a saved directory does. Neither step may
// panic; every manifest ReadManifest accepts, Place accepts too, since
// the two must agree on what R and a primary count may be; and the
// layout gives each chunk R−1 copies on distinct shards other than its
// own, filling each holder's physical slots after its primaries densely,
// one copy per slot.
func FuzzLoadPlacement(f *testing.F) {
	p, err := PartitionReplicated(fuzzClusters(9, 1), 3, 2, fuzzColl().Dims())
	if err != nil {
		f.Fatal(err)
	}
	seed := filepath.Join(f.TempDir(), chunkfile.ManifestName)
	if err := chunkfile.WriteManifest(seed, manifestOf(p, fuzzColl().Dims())); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-4])
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), chunkfile.ManifestName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := chunkfile.ReadManifest(path)
		if err != nil {
			return
		}
		total := 0
		for _, sf := range m.Shards {
			total += sf.Primary
		}
		// Opening a directory checks every shard's chunk count against
		// its index file before Place runs; counts no test-sized file
		// could back are not laid out here.
		if total*m.Replication > 1<<16 {
			return
		}
		p, _, err := loadPlacement(path)
		if err != nil {
			t.Fatalf("manifest accepted, its placement rejected: %v", err)
		}
		slots := make([][]bool, len(m.Shards))
		for s := range slots {
			slots[s] = make([]bool, physicalCounts(p)[s])
		}
		for s, lists := range p.Replicas {
			if len(lists) != m.Shards[s].Primary {
				t.Fatalf("shard %d: %d replica lists for %d primaries", s, len(lists), m.Shards[s].Primary)
			}
			for i, locs := range lists {
				if len(locs) != p.R-1 {
					t.Fatalf("shard %d chunk %d: %d replicas at R=%d", s, i, len(locs), p.R)
				}
				held := map[int32]bool{int32(s): true}
				for _, loc := range locs {
					if held[loc.Shard] {
						t.Fatalf("shard %d chunk %d: two copies on shard %d", s, i, loc.Shard)
					}
					held[loc.Shard] = true
					c := int(loc.Chunk)
					if c < p.NumPrimary[loc.Shard] || c >= len(slots[loc.Shard]) || slots[loc.Shard][c] {
						t.Fatalf("shard %d chunk %d: replica slot %d on shard %d is a primary, out of range or taken", s, i, c, loc.Shard)
					}
					slots[loc.Shard][c] = true
				}
			}
		}
	})
}
