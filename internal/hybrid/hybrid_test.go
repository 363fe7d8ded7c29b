package hybrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/imagegen"
	"repro/internal/roundrobin"
	"repro/internal/vec"
)

func TestCapacityRespected(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(4000, 1))
	coll := ds.Collection
	chunks, err := Chunks(coll, nil, Config{ChunkSize: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats := cluster.Summarize(chunks)
	if stats.Descriptors != coll.Len() {
		t.Fatalf("chunks cover %d of %d", stats.Descriptors, coll.Len())
	}
	// Capacity is ceil(n/k); allow the +1 rounding slack but nothing more.
	n := coll.Len()
	k := (n + 149) / 150
	capacity := (n + k - 1) / k
	if stats.MaxSize > capacity {
		t.Fatalf("max chunk %d exceeds capacity %d", stats.MaxSize, capacity)
	}
	for _, c := range chunks {
		if err := c.Validate(coll); err != nil {
			t.Fatal(err)
		}
	}
}

// The whole point of the hybrid strategy: uniform sizes like round-robin,
// but much tighter chunks.
func TestTighterThanRoundRobin(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(4000, 2))
	coll := ds.Collection
	hy, err := Chunks(coll, nil, Config{ChunkSize: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := roundrobin.Chunks(coll, nil, 150)
	if err != nil {
		t.Fatal(err)
	}
	hs, rs := cluster.Summarize(hy), cluster.Summarize(rr)
	// The bounding radius is a max statistic, so a single far outlier
	// forced into a chunk by the capacity constraint keeps it large;
	// still, hybrid must beat round-robin clearly.
	if hs.MeanRadius > rs.MeanRadius*0.75 {
		t.Fatalf("hybrid mean radius %.1f not well below round-robin %.1f", hs.MeanRadius, rs.MeanRadius)
	}
}

func TestDeterminism(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(1500, 3))
	a, err := Chunks(ds.Collection, nil, Config{ChunkSize: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chunks(ds.Collection, nil, Config{ChunkSize: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Count() != b[i].Count() || a[i].Radius != b[i].Radius {
			t.Fatalf("chunk %d differs", i)
		}
	}

	// Pin the chunks byte for byte at a fixed input: the hash covers every
	// chunk's member list in output order, so a changed assignment or a
	// reordered chunk shows.
	big := imagegen.MustGenerate(imagegen.DefaultConfig(20000, 1))
	chunks, err := Chunks(big.Collection, nil, Config{ChunkSize: 250, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := membershipHash(chunks), "85ed931d33adb2e3d9cea7e057750c1dabf9e04e3764e3c93f856a6982a7fca6"; got != want {
		t.Fatalf("hybrid chunk memberships hash %s, pinned %s", got, want)
	}
}

// membershipHash is the SHA-256 of the chunks' member lists: per chunk its
// member count, then its members, all as little-endian uint32.
func membershipHash(chunks []*cluster.Cluster) string {
	h := sha256.New()
	var w [4]byte
	put := func(x int) {
		binary.LittleEndian.PutUint32(w[:], uint32(x))
		h.Write(w[:])
	}
	for _, c := range chunks {
		put(len(c.Members))
		for _, m := range c.Members {
			put(m)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestErrorsAndEdges(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(500, 4))
	if _, err := Chunks(ds.Collection, nil, Config{ChunkSize: 0}); err == nil {
		t.Fatal("chunk size 0 accepted")
	}
	got, err := Chunks(ds.Collection, []int{}, Config{ChunkSize: 10})
	if err != nil || got != nil {
		t.Fatalf("empty indexes: %v %v", got, err)
	}
	// Single chunk case.
	one, err := Chunks(ds.Collection, []int{1, 2, 3}, Config{ChunkSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Count() != 3 {
		t.Fatalf("single chunk wrong: %d chunks", len(one))
	}
	// Four identical rows, two centroids of capacity two: every distance
	// ties. The capacity pass visits the rows in index order (a sort of
	// equal keys this short leaves them in place) and must give each the
	// lowest-index centroid with room.
	same := descriptor.NewCollection(3, 4)
	for i := 0; i < 4; i++ {
		same.Append(descriptor.ID(i), vec.Vector{1, 2, 3})
	}
	tied, err := Chunks(same, nil, Config{ChunkSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tied) != 2 || !slices.Equal(tied[0].Members, []int{0, 1}) || !slices.Equal(tied[1].Members, []int{2, 3}) {
		t.Fatalf("tied rows not assigned lowest centroid first: %d chunks", len(tied))
	}
}

// BenchmarkHybridChunks times one hybrid build at a fixed size: 50,000
// generated descriptors into chunks of 500 (k = 100), the default five
// Lloyd iterations. The collection is generated outside the timer.
func BenchmarkHybridChunks(b *testing.B) {
	coll := imagegen.MustGenerate(imagegen.DefaultConfig(50000, 1)).Collection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Chunks(coll, nil, Config{ChunkSize: 500, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
