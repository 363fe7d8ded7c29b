package repro

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chunkfile"
)

// writeV1Dir copies the saved index directory src into a new directory
// whose chunk files are rewritten in the v1 layout: the unversioned
// EFF2CHNK header and interleaved [ID | dims floats] records, each chunk
// padded to full pages — a test-only copy of the writer that preceded
// the columnar body. Index files, manifest and sidecars are copied as
// they are: the v1 chunks sit at the offsets they record.
func writeV1Dir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := chunkfile.ReadManifest(filepath.Join(src, chunkfile.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range m.Shards {
		st, err := chunkfile.Open(filepath.Join(src, sf.ChunkFile), filepath.Join(src, sf.IndexFile))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.WriteString("EFF2CHNK")
		for _, v := range []int{st.Dims(), m.PageSize, len(st.Meta())} {
			out.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
		var d chunkfile.Data
		rec := make([]byte, chunkfile.RecordSize(st.Dims()))
		for i, meta := range st.Meta() {
			out.Write(make([]byte, int(meta.Offset)-out.Len()))
			if int64(out.Len()) != meta.Offset {
				t.Fatalf("%s chunk %d: v1 offset %d != index offset %d", sf.ChunkFile, i, out.Len(), meta.Offset)
			}
			if err := st.ReadChunk(i, &d); err != nil {
				t.Fatal(err)
			}
			for k, id := range d.IDs {
				binary.LittleEndian.PutUint32(rec[0:4], uint32(id))
				for j, x := range d.Vec(k) {
					binary.LittleEndian.PutUint32(rec[4+4*j:], math.Float32bits(x))
				}
				out.Write(rec)
			}
			out.Write(make([]byte, int(meta.Offset)+meta.Bytes-out.Len()))
		}
		st.Close()
		if err := os.WriteFile(filepath.Join(dst, sf.ChunkFile), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestV1IndexMatchesV2 pins the v1 read shim end to end: an index saved
// in the columnar layout and the same index rewritten as v1 chunk files,
// each opened with the cache off and on, give byte-identical neighbours,
// ChunksRead, Simulated and Exact under all three stop rules and both
// budget disciplines, cold and warm.
func TestV1IndexMatchesV2(t *testing.T) {
	coll := testCollection(t)
	built, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 150}, 3)
	if err != nil {
		t.Fatal(err)
	}
	v2 := t.TempDir()
	if err := built.Save(v2); err != nil {
		t.Fatal(err)
	}
	built.Close()
	v1 := writeV1Dir(t, v2)
	if raw, err := os.ReadFile(filepath.Join(v1, "shard-0.chunk")); err != nil || !bytes.HasPrefix(raw, []byte("EFF2CHNK")) {
		t.Fatalf("v1 shard-0.chunk not in the v1 layout (err %v)", err)
	}

	open := func(dir string, cacheBytes int64) *ShardedIndex {
		sx, err := OpenShardedWith(dir, OpenConfig{CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sx.Close() })
		return sx
	}
	want := open(v2, 0)
	type side struct {
		name string
		sx   *ShardedIndex
	}
	sides := []side{{"v2 cached", open(v2, 32<<20)}, {"v1", open(v1, 0)}, {"v1 cached", open(v1, 32<<20)}}
	queries, err := DatasetQueries(coll, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, base := range cacheStopVariants(15) {
			for _, global := range []bool{false, true} {
				opts := base
				opts.GlobalBudget = global
				for qi, q := range queries {
					w, err := want.Search(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range sides {
						g, err := s.sx.Search(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						identicalResult(t, fmt.Sprintf("%s pass %d query %d %+v", s.name, pass, qi, opts), g, w)
					}
				}
			}
		}
	}
	if st := sides[2].sx.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cached v1 index saw %d hits and %d misses; both paths must run", st.Hits, st.Misses)
	}
}
