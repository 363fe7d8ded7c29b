// Replica placement: the availability half of the shard layer.
//
// With replication factor R every cluster lives on R distinct shards: its
// primary — the shard the plain Partition assigns, unchanged, so R=1
// layouts are byte-identical to the pre-replication layer — plus R−1
// replicas. Each shard's physical chunk file is its primary chunks
// followed by the replica chunks placed on it; queries walk the primary
// prefixes only (the shard's logical chunks), so every descriptor is
// scanned exactly once per query and neighbor lists stay free of
// duplicates. Replica chunks are touched only by the failover read path
// when the primary's shard is down.
//
// Replicas are declustered statically: the r-th replica of shard p's i-th
// primary goes to shard (p + r + i mod (S−R+1)) mod S. The offset
// r + i mod (S−R+1) runs over 1..S−1 and differs for each r, so every
// copy of a chunk sits on its own shard; and consecutive primaries of
// one shard rotate their replicas over the other shards, so when shard p
// is down its reads spread over the survivors instead of landing on one
// neighbour. The procedure is fully deterministic.

package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
)

// ChunkLoc addresses one physical chunk: chunk Chunk of shard Shard's
// physical store.
type ChunkLoc struct {
	Shard int32
	Chunk int32
}

// Placement records where every logical chunk's replicas live. A shard's
// logical chunks are the first NumPrimary[s] chunks of its physical
// store; Replicas[s][i] lists the R−1 physical locations holding copies
// of logical chunk i of shard s, in placement order. The zero R−1 case
// (R=1) carries empty replica lists and is exactly the pre-replication
// layout.
type Placement struct {
	// R is the replication factor: every cluster lives on R distinct
	// shards (1 primary + R−1 replicas).
	R int
	// NumPrimary is each shard's logical (primary) chunk count.
	NumPrimary []int
	// Replicas holds, per shard and logical chunk, the R−1 replica
	// locations.
	Replicas [][][]ChunkLoc
	// Primary holds each shard's primary cluster indexes in ascending
	// order — the plain Partition assignment. Build-side only; nil after
	// LoadPlacement.
	Primary [][]int
	// Extra holds the cluster indexes replicated onto each shard, in
	// physical chunk order after the primaries. Build-side only; nil
	// after LoadPlacement.
	Extra [][]int
}

// PartitionReplicated assigns clusters to shards with replication factor
// replication: primaries by the plain Partition (so the logical layout —
// and with it every healthy query result — is independent of R), replicas
// declustered over the other shards (see the file comment). A shard's
// physical chunk order is its ascending primaries followed by its
// replicas in placement order.
func PartitionReplicated(clusters []*cluster.Cluster, shards, replication, dims, pageSize int) (*Placement, error) {
	if replication < 1 {
		return nil, fmt.Errorf("shard: replication factor %d < 1", replication)
	}
	if replication > shards {
		return nil, fmt.Errorf("shard: replication factor %d > shard count %d", replication, shards)
	}
	assign, err := Partition(clusters, shards, dims, pageSize)
	if err != nil {
		return nil, err
	}
	p := &Placement{
		R:          replication,
		NumPrimary: make([]int, shards),
		Replicas:   make([][][]ChunkLoc, shards),
		Primary:    assign,
		Extra:      make([][]int, shards),
	}
	for s, idxs := range assign {
		p.NumPrimary[s] = len(idxs)
		p.Replicas[s] = make([][]ChunkLoc, len(idxs))
		for i, ci := range idxs {
			for r := 1; r < replication; r++ {
				t := (s + r + i%(shards-replication+1)) % shards
				loc := ChunkLoc{Shard: int32(t), Chunk: int32(len(assign[t]) + len(p.Extra[t]))}
				p.Extra[t] = append(p.Extra[t], ci)
				p.Replicas[s][i] = append(p.Replicas[s][i], loc)
			}
		}
	}
	return p, nil
}

const placementMagic = "EFF2REPL"

// PlacementName is the placement sidecar's file name inside a sharded
// index directory. The file exists only for replicated (R>1) layouts.
const PlacementName = "replicas"

// SavePlacement writes the placement sidecar to path (build-side Primary
// and Extra are not persisted; OpenSharded-style consumers only need the
// logical sizes and replica locations).
func SavePlacement(path string, p *Placement) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: create placement file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(placementMagic); err != nil {
		return err
	}
	writeU32 := func(v int) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		_, err := w.Write(b[:])
		return err
	}
	if err := writeU32(p.R); err != nil {
		return err
	}
	if err := writeU32(len(p.NumPrimary)); err != nil {
		return err
	}
	for s, n := range p.NumPrimary {
		if err := writeU32(n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			locs := p.Replicas[s][i]
			if err := writeU32(len(locs)); err != nil {
				return err
			}
			for _, loc := range locs {
				if err := writeU32(int(loc.Shard)); err != nil {
					return err
				}
				if err := writeU32(int(loc.Chunk)); err != nil {
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("shard: write placement file: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("shard: sync placement file: %w", err)
	}
	return nil
}

// LoadPlacement reads a placement sidecar written by SavePlacement.
func LoadPlacement(path string) (*Placement, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read placement file: %w", err)
	}
	if len(raw) < 16 || string(raw[:8]) != placementMagic {
		return nil, fmt.Errorf("shard: placement file: %w", chunkfile.ErrBadMagic)
	}
	o := 8
	readU32 := func() (int, error) {
		if o+4 > len(raw) {
			return 0, fmt.Errorf("shard: placement file truncated at byte %d", o)
		}
		v := int(binary.LittleEndian.Uint32(raw[o : o+4]))
		o += 4
		return v, nil
	}
	p := &Placement{}
	if p.R, err = readU32(); err != nil {
		return nil, err
	}
	shards, err := readU32()
	if err != nil {
		return nil, err
	}
	if p.R < 1 || shards < 1 || shards > math.MaxInt32 || p.R > shards {
		return nil, fmt.Errorf("shard: placement file has invalid replication %d over %d shards", p.R, shards)
	}
	if shards > len(raw) { // each shard entry takes well over one byte
		return nil, fmt.Errorf("shard: placement file shard count %d invalid", shards)
	}
	p.NumPrimary = make([]int, shards)
	p.Replicas = make([][][]ChunkLoc, shards)
	for s := 0; s < shards; s++ {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > len(raw) {
			return nil, fmt.Errorf("shard: placement file shard %d chunk count %d invalid", s, n)
		}
		p.NumPrimary[s] = n
		p.Replicas[s] = make([][]ChunkLoc, n)
		for i := 0; i < n; i++ {
			k, err := readU32()
			if err != nil {
				return nil, err
			}
			if k != p.R-1 {
				return nil, fmt.Errorf("shard: placement file shard %d chunk %d has %d replicas, want %d", s, i, k, p.R-1)
			}
			locs := make([]ChunkLoc, k)
			for r := range locs {
				sh, err := readU32()
				if err != nil {
					return nil, err
				}
				ch, err := readU32()
				if err != nil {
					return nil, err
				}
				if sh < 0 || sh >= shards || sh == s || ch < 0 || ch > math.MaxInt32 {
					return nil, fmt.Errorf("shard: placement file shard %d chunk %d replica %d location (%d,%d) invalid", s, i, r, sh, ch)
				}
				locs[r] = ChunkLoc{Shard: int32(sh), Chunk: int32(ch)}
			}
			p.Replicas[s][i] = locs
		}
	}
	if o != len(raw) {
		return nil, fmt.Errorf("shard: placement file has %d trailing bytes", len(raw)-o)
	}
	return p, nil
}
