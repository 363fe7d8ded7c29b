// Replica placement: the availability half of the shard layer.
//
// With replication factor R every cluster lives on R distinct shards: its
// primary — the shard the plain partition assigns, unchanged, so R=1
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
// neighbour. The layout is a function of R and the shards' primary
// counts alone (Place): the build lays the copies out with it, and a
// saved index, whose manifest records exactly those numbers, lays them
// out again at open. A directory written under another rule is caught
// there, when a replica's index entry differs from its primary's.

package shard

import (
	"fmt"

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
	// order — the plain partition assignment. Build-side only; nil from
	// Place.
	Primary [][]int
	// Extra holds the cluster indexes replicated onto each shard, in
	// physical chunk order after the primaries. Build-side only; nil
	// from Place.
	Extra [][]int
}

// PartitionReplicated assigns clusters to shards with replication factor
// replication: primaries by the plain partition (so the logical layout —
// and with it every healthy query result — is independent of R), replicas
// declustered over the other shards by Place. A shard's physical chunk
// order is its ascending primaries followed by its replicas in placement
// order.
func PartitionReplicated(clusters []*cluster.Cluster, shards, replication, dims int) (*Placement, error) {
	assign, err := partition(clusters, shards, dims)
	if err != nil {
		return nil, err
	}
	numPrimary := make([]int, shards)
	for s, idxs := range assign {
		numPrimary[s] = len(idxs)
	}
	p, err := Place(numPrimary, replication)
	if err != nil {
		return nil, err
	}
	p.Primary = assign
	p.Extra = make([][]int, shards)
	for s, idxs := range assign {
		for i, ci := range idxs {
			for _, loc := range p.Replicas[s][i] {
				p.Extra[loc.Shard] = append(p.Extra[loc.Shard], ci)
			}
		}
	}
	return p, nil
}

// Place lays out the replicas of a layout whose shard s holds
// numPrimary[s] primary chunks, with replication factor replication (see
// the file comment). Replicas land on each shard in the order of this
// walk — shard, then primary, then copy — after the shard's primaries,
// so the locations follow from the counts alone.
func Place(numPrimary []int, replication int) (*Placement, error) {
	shards := len(numPrimary)
	if replication < 1 {
		return nil, fmt.Errorf("shard: replication factor %d < 1", replication)
	}
	if replication > shards {
		return nil, fmt.Errorf("shard: replication factor %d > shard count %d", replication, shards)
	}
	p := &Placement{R: replication, NumPrimary: numPrimary, Replicas: make([][][]ChunkLoc, shards)}
	next := make([]int, shards) // each shard's next physical chunk
	for s, n := range numPrimary {
		if n < 0 {
			return nil, fmt.Errorf("shard: shard %d: %d primary chunks", s, n)
		}
		next[s] = n
	}
	for s, n := range numPrimary {
		p.Replicas[s] = make([][]ChunkLoc, n)
		for i := range n {
			for r := 1; r < replication; r++ {
				t := (s + r + i%(shards-replication+1)) % shards
				p.Replicas[s][i] = append(p.Replicas[s][i], ChunkLoc{Shard: int32(t), Chunk: int32(next[t])})
				next[t]++
			}
		}
	}
	return p, nil
}
