package chunkfile

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// writePair writes the fixture clustering to a fresh file pair.
func writePair(t testing.TB) (cp, ip string, cs []*cluster.Cluster) {
	t.Helper()
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	cp, ip = filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	if err := Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	return cp, ip, cs
}

// rewriteEntry loads the index file, mutates entry i in place (offset is
// the entry's field offset of the chunk-file offset field), and writes it
// back.
func rewriteEntry(t *testing.T, ip string, i int, mutate func(entry []byte, offField int)) {
	t.Helper()
	raw, err := os.ReadFile(ip)
	if err != nil {
		t.Fatal(err)
	}
	dims := int(binary.LittleEndian.Uint32(raw[8:12]))
	es := EntrySize(dims)
	mutate(raw[16+i*es:16+(i+1)*es], dims*4+8)
	if err := os.WriteFile(ip, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenValidatesMetas pins the open-time validation: index entries
// whose offset, size or count disagree with the chunk file must fail at
// Open with a clear error, never surface mid-query.
func TestOpenValidatesMetas(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(entry []byte, offField int)
	}{
		{"offset beyond EOF", func(e []byte, offField int) {
			binary.LittleEndian.PutUint64(e[offField:], 1<<40)
		}},
		{"offset inside header", func(e []byte, offField int) {
			binary.LittleEndian.PutUint64(e[offField:], 8)
		}},
		{"bytes beyond EOF", func(e []byte, offField int) {
			binary.LittleEndian.PutUint32(e[offField+8:], 1<<30)
		}},
		{"count exceeds bytes", func(e []byte, offField int) {
			binary.LittleEndian.PutUint32(e[offField+12:], 1<<20)
		}},
		{"offset+bytes wraps past MaxInt64", func(e []byte, offField int) {
			binary.LittleEndian.PutUint64(e[offField:], math.MaxInt64-8)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, ip, _ := writePair(t)
			rewriteEntry(t, ip, 1, tc.mutate)
			if st, err := Open(cp, ip); err == nil {
				st.Close()
				t.Fatal("corrupt index entry accepted at open time")
			} else {
				t.Log(err)
			}
		})
	}

	// A truncated chunk file fails at open, not at first read.
	cp, ip, _ := writePair(t)
	raw, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, raw[:len(raw)-PageSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(cp, ip); err == nil {
		st.Close()
		t.Fatal("truncated chunk file accepted at open time")
	}
}

// TestOpenRejectsForeignChunkHeaders pins Open's reading of the chunk
// file's header: a file that is not a chunk file, the retired
// unversioned header, a version this reader does not know, a header cut
// short inside the version byte, and a header recording a page other than
// PageSize all fail at open.
func TestOpenRejectsForeignChunkHeaders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(raw []byte) []byte
		is      error  // the error Open must wrap, if any
		mention string // text the error must contain, if any
	}{
		{"garbage magic", func(raw []byte) []byte { return append([]byte("GARBAGE!"), raw[8:]...) }, ErrBadMagic, ""},
		{"unversioned header", func(raw []byte) []byte { return append([]byte("EFF2CHNK"), raw[len(chunkMagic)+1:]...) }, ErrBadMagic, ""},
		{"unknown version", func(raw []byte) []byte { raw[len(chunkMagic)] = 3; return raw }, nil, "version 3"},
		{"cut inside the version byte", func(raw []byte) []byte { return raw[:len(chunkMagic)] }, nil, ""},
		{"page 4096", func(raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[len(chunkMagic)+5:], 4096)
			return raw
		}, ErrPageSize, "page size 4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp, ip, _ := writePair(t)
			raw, err := os.ReadFile(cp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cp, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(cp, ip)
			if err == nil {
				st.Close()
				t.Fatal("foreign chunk file header accepted")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err = %v, want %v", err, tc.is)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.mention)
			}
		})
	}
}

// TestOpenRejectsOverflowingIndexHeader pins the header bounds: dims
// 2147483642 makes an entry 2³³ bytes, and 2³¹ entries of that size wrap
// the expected file size to 16, the header alone. Open must reject the
// 16-byte file with an error instead of allocating 2³¹ entries.
func TestOpenRejectsOverflowingIndexHeader(t *testing.T) {
	cp, ip, _ := writePair(t)
	hdr := []byte(indexMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, 2147483642)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<31)
	if err := os.WriteFile(ip, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(cp, ip); err == nil {
		st.Close()
		t.Fatal("overflowing index header accepted")
	} else {
		t.Log(err)
	}
}

// TestUseAfterCloseIsError pins the ErrClosed contract on both stores:
// ReadChunk after Close reports ErrClosed instead of silently serving
// (MemStore) or surfacing a bare file error (FileStore).
func TestUseAfterCloseIsError(t *testing.T) {
	coll, cs := makeClusters(t)

	mem := NewMemStore(coll, cs)
	var data Data
	if err := mem.ReadChunk(0, &data); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadChunk(0, &data); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed MemStore ReadChunk: %v, want ErrClosed", err)
	}

	cp, ip, _ := writePair(t)
	fs, err := Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadChunk(0, &data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadChunk(0, &data); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed FileStore ReadChunk: %v, want ErrClosed", err)
	}
}

// TestShardedRoundTrip pins the manifest format: SaveSharded then
// OpenSharded serves the same chunks per shard and gives back the
// replication factor and primary counts, and the manifest's checks reject
// tampered directories, the retired unversioned manifest, unknown
// versions and a page other than PageSize.
func TestShardedRoundTrip(t *testing.T) {
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	shards := [][]*cluster.Cluster{{cs[0], cs[2], cs[1]}, {cs[1], cs[0], cs[2]}} // each shard's primaries, then its copies of the other's
	if err := SaveSharded(coll, shards, []int{2, 1}, 2, dir); err != nil {
		t.Fatal(err)
	}

	stores, m, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims != coll.Dims() || m.Replication != 2 || len(m.Shards) != 2 ||
		m.Shards[0].Primary != 2 || m.Shards[1].Primary != 1 {
		t.Fatalf("manifest %+v", m)
	}
	if len(stores) != 2 {
		t.Fatalf("stores = %d", len(stores))
	}
	var data Data
	for s, part := range shards {
		if got := len(stores[s].Meta()); got != len(part) {
			t.Fatalf("shard %d: %d chunks != %d", s, got, len(part))
		}
		for ci, cl := range part {
			if err := stores[s].ReadChunk(ci, &data); err != nil {
				t.Fatal(err)
			}
			if data.Len() != cl.Count() {
				t.Fatalf("shard %d chunk %d: %d descriptors != %d", s, ci, data.Len(), cl.Count())
			}
		}
		stores[s].Close()
	}

	// A manifest naming paths outside its directory is rejected (hostile
	// manifests must not read files outside the index dir).
	for _, evil := range []string{"../escape.chunk", "/abs/escape.chunk", ""} {
		bad := *m
		bad.Shards = append([]ShardFiles(nil), m.Shards...)
		bad.Shards[0].ChunkFile = evil
		if err := WriteManifest(filepath.Join(dir, ManifestName), &bad); err != nil {
			t.Fatal(err)
		}
		if opened, _, err := OpenSharded(dir); err == nil {
			for _, st := range opened {
				st.Close()
			}
			t.Fatalf("manifest with shard path %q accepted", evil)
		}
	}

	// A manifest chunk count that disagrees with the shard's index file is
	// rejected.
	m.Shards[1].Chunks = 5
	if err := WriteManifest(filepath.Join(dir, ManifestName), m); err != nil {
		t.Fatal(err)
	}
	if opened, _, err := OpenSharded(dir); err == nil {
		for _, st := range opened {
			st.Close()
		}
		t.Fatal("manifest/shard chunk-count mismatch accepted")
	}

	// A truncated manifest, the unversioned manifest that preceded the
	// version byte, an unknown version and a page of 4096 are rejected.
	mpath := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	page4096 := slices.Clone(raw)
	binary.LittleEndian.PutUint32(page4096[len(manifestMagic)+5:], 4096)
	for _, tc := range []struct {
		name    string
		raw     []byte
		is      error
		mention string
	}{
		{"truncated", raw[:len(raw)-3], nil, "truncated"},
		{"unversioned", append([]byte("EFF2SMFT"), raw[len(manifestMagic)+1:]...), ErrBadMagic, ""},
		{"unknown version", append([]byte(manifestMagic+"\x07"), raw[len(manifestMagic)+1:]...), nil, "manifest version 7"},
		{"page 4096", page4096, ErrPageSize, "page size 4096"},
	} {
		if err := os.WriteFile(mpath, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenSharded(dir)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) || !strings.Contains(err.Error(), tc.mention) {
			t.Fatalf("%s manifest: err %v, want %v mentioning %q", tc.name, err, tc.is, tc.mention)
		}
	}

	if err := SaveSharded(coll, nil, nil, 1, dir); err == nil {
		t.Fatal("zero-shard save accepted")
	}
}
