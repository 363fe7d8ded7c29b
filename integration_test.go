package repro

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chunkfile"
)

// TestSearchBatchFailFast verifies a bad query fails the whole batch and
// the error identifies the query; the dispatcher stops handing out work
// once a worker reports a failure.
func TestSearchBatchFailFast(t *testing.T) {
	coll := GenerateCollection(2000, 6)
	idx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200}, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := DatasetQueries(coll, 50, 1)
	queries := make([]Vector, 0, len(good)+1)
	queries = append(queries, make(Vector, Dims+1)) // wrong dims: fails
	queries = append(queries, good...)

	err = idx.SearchBatchInto(queries, BatchOptions{Parallelism: 1}, make([]Result, len(queries)))
	if err == nil {
		t.Fatal("bad query did not fail the batch")
	}
	if !strings.Contains(err.Error(), "batch query 0") {
		t.Fatalf("error does not identify the failing query: %v", err)
	}
}

// TestCorruptIndexFilesRejected is the failure-injection counterpart of
// the save/open round-trip: every mangled artifact of a one-shard index
// directory must fail at open with a diagnostic error naming what is
// wrong, never panic and never surface as a silent wrong result.
func TestCorruptIndexFilesRejected(t *testing.T) {
	coll := GenerateCollection(3000, 7)
	idx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200}, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if err := idx.Save(src); err != nil {
		t.Fatal(err)
	}
	const chunkName, indexName = "shard-0.chunk", "shard-0.idx"

	// rewrite mutates one file of the directory in place.
	rewrite := func(name string, mutate func([]byte) []byte) func(dir string) {
		return func(dir string) {
			path := filepath.Join(dir, name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		mutate func(dir string)
		want   string // substring of the open error
	}{
		{"missing index file", func(dir string) {
			if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
				t.Fatal(err)
			}
		}, indexName},
		{"bad index magic", rewrite(indexName, func(b []byte) []byte { b[0] ^= 0xFF; return b }), "shard 0"},
		{"truncated index file", rewrite(indexName, func(b []byte) []byte { return b[:len(b)-13] }), "shard 0"},
		{"bad chunk magic", rewrite(chunkName, func(b []byte) []byte { b[0] ^= 0xFF; return b }), "shard 0"},
		{"truncated chunk file", rewrite(chunkName, func(b []byte) []byte { return b[:len(b)/2] }), "shard 0"},
		{"index entry past EOF", rewrite(indexName, func(b []byte) []byte {
			// Entry 1's chunk-file offset field (header 16 bytes, then
			// fixed-size entries of centroid, radius, offset, size, count).
			dims := int(binary.LittleEndian.Uint32(b[8:12]))
			off := 16 + chunkfile.EntrySize(dims) + dims*4 + 8
			binary.LittleEndian.PutUint64(b[off:], 1<<40)
			return b
		}), "shard 0"},
		{"manifest chunk-count mismatch", func(dir string) {
			path := filepath.Join(dir, chunkfile.ManifestName)
			m, err := chunkfile.ReadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			m.Shards[0].Chunks++
			if err := chunkfile.WriteManifest(path, m); err != nil {
				t.Fatal(err)
			}
		}, "manifest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{chunkName, indexName, chunkfile.ManifestName} {
				raw, err := os.ReadFile(filepath.Join(src, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tc.mutate(dir)
			fx, err := OpenSharded(dir)
			if err == nil {
				fx.Close()
				t.Fatal("corrupt index directory opened")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Collection file corruption.
	collPath := filepath.Join(t.TempDir(), "c.desc")
	if err := SaveCollection(coll, collPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(collPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(collPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(collPath); err == nil {
		t.Fatal("truncated collection accepted")
	}
}

// TestDeterministicPipeline: identical seeds must yield identical indexes
// and identical search results across independent runs.
func TestDeterministicPipeline(t *testing.T) {
	run := func() []Neighbor {
		coll := GenerateCollection(4000, 123)
		idx, err := BuildSharded(coll, BuildConfig{Strategy: StrategyHybrid, ChunkSize: 150, Seed: 9}, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := idx.Search(coll.Vec(77), SearchOptions{K: 12, MaxChunks: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Neighbors
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across runs", i)
		}
	}
}
