package chunkfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenIndex opens mutated index-file bytes against a valid chunk
// file. Open must never panic or crash; it either rejects the pair with
// an error or returns a store whose every chunk reads back without error.
// The committed seeds are a real index of the writePair fixture and a
// 16-byte header whose dims × count wraps the expected size to zero.
func FuzzOpenIndex(f *testing.F) {
	cp, ip, _ := writePair(f)
	f.Fuzz(func(t *testing.T, index []byte) {
		if err := os.WriteFile(ip, index, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(cp, ip)
		if err != nil {
			return
		}
		defer st.Close()
		var d Data
		for i := range st.Meta() {
			if err := st.ReadChunk(i, &d); err != nil {
				t.Fatalf("accepted index fails to read chunk %d: %v", i, err)
			}
		}
	})
}

// FuzzReadChunkFile opens mutated chunk-file bytes against a valid index.
// Open must never panic; it either rejects the pair with an error, or
// every ReadChunk returns the chunk's Count rows or an error. The seeds
// are a v2 file, the same header and body under the retired unversioned
// magic, and a truncated header.
func FuzzReadChunkFile(f *testing.F) {
	cp, ip, _ := writePair(f)
	v2, err := os.ReadFile(cp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(append([]byte("EFF2CHNK"), v2[len(chunkMagic)+1:]...))
	f.Add(v2[:12])
	f.Fuzz(func(t *testing.T, chunk []byte) {
		path := filepath.Join(t.TempDir(), "c.chunk")
		if err := os.WriteFile(path, chunk, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, ip)
		if err != nil {
			return
		}
		defer st.Close()
		var d Data
		for i, m := range st.Meta() {
			if err := st.ReadChunk(i, &d); err != nil {
				continue
			}
			if d.Len() != m.Count || len(d.Vecs) != m.Count*st.Dims() {
				t.Fatalf("chunk %d: %d IDs and %d floats, want %d rows", i, d.Len(), len(d.Vecs), m.Count)
			}
		}
	})
}

// FuzzReadManifest reads mutated manifest bytes. ReadManifest must never
// panic; a manifest it accepts is written back byte-identically by
// WriteManifest. The seeds are an unreplicated manifest, a cut of it, and
// an R=2 manifest whose shards hold replicas after their primaries.
func FuzzReadManifest(f *testing.F) {
	seed := filepath.Join(f.TempDir(), ManifestName)
	manifestBytes := func(m *Manifest) []byte {
		if err := WriteManifest(seed, m); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	raw := manifestBytes(&Manifest{Dims: 24, Replication: 1, Shards: []ShardFiles{
		{ChunkFile: "shard-0.chunk", IndexFile: "shard-0.idx", Chunks: 3, Primary: 3},
		{ChunkFile: "shard-1.chunk", IndexFile: "shard-1.idx", Chunks: 0, Primary: 0},
	}})
	f.Add(raw)
	f.Add(raw[:20])
	f.Add(manifestBytes(&Manifest{Dims: 24, Replication: 2, Shards: []ShardFiles{
		{ChunkFile: "shard-0.chunk", IndexFile: "shard-0.idx", Chunks: 5, Primary: 3},
		{ChunkFile: "shard-1.chunk", IndexFile: "shard-1.idx", Chunks: 5, Primary: 2},
	}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, ManifestName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again")
		if err := WriteManifest(again, m); err != nil {
			t.Fatalf("accepted manifest %+v does not write back: %v", m, err)
		}
		out, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("manifest round trip differs:\n in %x\nout %x", raw, out)
		}
	})
}
