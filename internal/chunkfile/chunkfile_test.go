package chunkfile

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// makeClusters builds a small collection and a 3-chunk clustering.
func makeClusters(t testing.TB) (*descriptor.Collection, []*cluster.Cluster) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	coll := descriptor.NewCollection(vec.Dims, 100)
	v := make(vec.Vector, vec.Dims)
	for i := 0; i < 100; i++ {
		for d := range v {
			v[d] = float32(r.NormFloat64() * 10)
		}
		coll.Append(descriptor.ID(1000+i), v)
	}
	var members [3][]int
	for i := 0; i < 100; i++ {
		members[i%3] = append(members[i%3], i)
	}
	cs := make([]*cluster.Cluster, 3)
	for i := range cs {
		cs[i] = cluster.NewFromMembers(coll, members[i])
	}
	return coll, cs
}

func TestFileRoundTrip(t *testing.T) {
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	if err := Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	st, err := Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if st.Dims() != vec.Dims {
		t.Fatalf("dims = %d", st.Dims())
	}
	metas := st.Meta()
	if len(metas) != 3 {
		t.Fatalf("chunks = %d", len(metas))
	}
	var data Data
	totalSeen := 0
	for i, m := range metas {
		if m.Count != cs[i].Count() {
			t.Fatalf("chunk %d count %d != %d", i, m.Count, cs[i].Count())
		}
		if !vec.Equal(m.Centroid, cs[i].Centroid) {
			t.Fatalf("chunk %d centroid mismatch", i)
		}
		if m.Radius != cs[i].Radius {
			t.Fatalf("chunk %d radius %v != %v", i, m.Radius, cs[i].Radius)
		}
		if m.Bytes%PageSize != 0 {
			t.Fatalf("chunk %d not page padded: %d bytes", i, m.Bytes)
		}
		if err := st.ReadChunk(i, &data); err != nil {
			t.Fatal(err)
		}
		if data.Len() != m.Count {
			t.Fatalf("chunk %d decoded %d, want %d", i, data.Len(), m.Count)
		}
		for k, memberIdx := range cs[i].Members {
			if data.IDs[k] != coll.IDAt(memberIdx) {
				t.Fatalf("chunk %d rec %d id mismatch", i, k)
			}
			if !vec.Equal(data.Vec(k), coll.Vec(memberIdx)) {
				t.Fatalf("chunk %d rec %d vector mismatch", i, k)
			}
		}
		totalSeen += data.Len()
	}
	if totalSeen != 100 {
		t.Fatalf("decoded %d descriptors, want 100", totalSeen)
	}
}

func TestChunksStartOnPageBoundaries(t *testing.T) {
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	if err := Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	st, err := Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prevEnd := int64(0)
	for i, m := range st.Meta() {
		if m.Offset%PageSize != 0 {
			t.Fatalf("chunk %d offset %d not page aligned", i, m.Offset)
		}
		if m.Offset < prevEnd {
			t.Fatalf("chunk %d overlaps previous", i)
		}
		prevEnd = m.Offset + int64(m.Bytes)
	}
}

func TestMemStoreMatchesFileStore(t *testing.T) {
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	if err := Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewMemStore(coll, cs)

	fm, mm := fs.Meta(), ms.Meta()
	if len(fm) != len(mm) {
		t.Fatalf("meta lengths differ: %d vs %d", len(fm), len(mm))
	}
	var fd, md Data
	for i := range fm {
		if fm[i].Bytes != mm[i].Bytes || fm[i].Count != mm[i].Count {
			t.Fatalf("chunk %d accounting differs: %+v vs %+v", i, fm[i], mm[i])
		}
		if err := fs.ReadChunk(i, &fd); err != nil {
			t.Fatal(err)
		}
		if err := ms.ReadChunk(i, &md); err != nil {
			t.Fatal(err)
		}
		for k := range fd.IDs {
			if fd.IDs[k] != md.IDs[k] || !vec.Equal(fd.Vec(k), md.Vec(k)) {
				t.Fatalf("chunk %d rec %d differs between stores", i, k)
			}
		}
	}
}

func TestReadChunkOutOfRange(t *testing.T) {
	coll, cs := makeClusters(t)
	ms := NewMemStore(coll, cs)
	var d Data
	if err := ms.ReadChunk(-1, &d); err != ErrChunkOOB {
		t.Fatalf("err = %v", err)
	}
	if err := ms.ReadChunk(3, &d); err != ErrChunkOOB {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	coll, cs := makeClusters(t)
	if err := Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	// Swap the two paths: chunk file opened as index must fail.
	if _, err := Open(ip, cp); err == nil {
		t.Fatal("swapped files accepted")
	}
}

func TestDataBufferReuse(t *testing.T) {
	coll, cs := makeClusters(t)
	ms := NewMemStore(coll, cs)
	var d Data
	if err := ms.ReadChunk(0, &d); err != nil {
		t.Fatal(err)
	}
	n0 := d.Len()
	if err := ms.ReadChunk(1, &d); err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 || d.Len()+n0 == 0 {
		t.Fatal("no data after reuse")
	}
	if len(d.Vecs) != d.Len()*vec.Dims {
		t.Fatalf("vec buffer %d for %d records", len(d.Vecs), d.Len())
	}
}

// TestCrossStoreDataReuse pins the ownership guard: after a MemStore read
// leaves Data aliasing store memory, a FileStore decode into the same
// Data must allocate fresh buffers instead of overwriting — and thereby
// corrupting — the MemStore's arrays.
func TestCrossStoreDataReuse(t *testing.T) {
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	if err := Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewMemStore(coll, cs)

	var data Data
	if err := ms.ReadChunk(0, &data); err != nil {
		t.Fatal(err)
	}
	wantIDs := append([]descriptor.ID(nil), data.IDs...)
	wantVecs := append([]float32(nil), data.Vecs...)

	// Decode a *different* chunk of the file store into the same Data.
	if err := fs.ReadChunk(1, &data); err != nil {
		t.Fatal(err)
	}

	var again Data
	if err := ms.ReadChunk(0, &again); err != nil {
		t.Fatal(err)
	}
	for i := range wantIDs {
		if again.IDs[i] != wantIDs[i] {
			t.Fatalf("memstore IDs corrupted at %d: %d != %d", i, again.IDs[i], wantIDs[i])
		}
	}
	for i := range wantVecs {
		if again.Vecs[i] != wantVecs[i] {
			t.Fatalf("memstore Vecs corrupted at %d", i)
		}
	}
}

func TestEntrySize(t *testing.T) {
	if EntrySize(24) != 24*4+24 {
		t.Fatalf("EntrySize(24) = %d", EntrySize(24))
	}
}

// TestSwapWords pins the big-endian path's byte swap: swapping twice
// gives back the input, and swapping the words a big-endian host loads
// from a chunk body yields the values binary.LittleEndian decodes.
func TestSwapWords(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	raw := make([]byte, 4*101)
	r.Read(raw)
	le, be := make(Block, 101), make(Block, 101)
	for i := range le {
		le[i] = binary.LittleEndian.Uint32(raw[4*i:])
		be[i] = binary.BigEndian.Uint32(raw[4*i:])
	}
	b := slices.Clone(be)
	swapWords(b)
	if !slices.Equal(b, le) {
		t.Fatal("swapped block differs from the little-endian decode")
	}
	swapWords(b)
	if !slices.Equal(b, be) {
		t.Fatal("swapping twice does not give back the input")
	}
}
