package repro

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/chunkfile"
)

// copyIndexDir copies the index directory src into a new directory,
// leaving out the file named skip (none when skip is empty).
func copyIndexDir(t *testing.T, src, skip string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == skip {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSavedDirectoryIsWhole pins that a saved directory is the manifest
// plus its shards' file pairs and nothing else: for 4-shard indexes at
// R=1 and R=2, a copy without any one of its files fails to open, and at
// R=2 a manifest rewritten to disagree with the files — R−1, R+1, one
// shard's primary count −1, two shards' entries swapped — fails to open
// with an error naming a shard, instead of serving duplicated or
// misrouted chunks.
func TestSavedDirectoryIsWhole(t *testing.T) {
	coll := GenerateCollection(5000, 91)
	for _, R := range []int{1, 2} {
		sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200, Replication: R}, 4)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		err = sx.Save(dir)
		sx.Close()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1+2*4 {
			t.Fatalf("R=%d: saved %d files, want the manifest and 4 file pairs", R, len(entries))
		}
		for _, e := range append(entries, nil) {
			skip := ""
			if e != nil {
				skip = e.Name()
			}
			fx, err := OpenSharded(copyIndexDir(t, dir, skip))
			if err == nil {
				fx.Close()
			}
			if (err == nil) != (skip == "") {
				t.Fatalf("R=%d without %q: open err %v", R, skip, err)
			}
		}
		if R == 1 {
			continue
		}

		m, err := chunkfile.ReadManifest(filepath.Join(dir, chunkfile.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			mutate func(m *chunkfile.Manifest)
		}{
			{"R-1", func(m *chunkfile.Manifest) { m.Replication-- }},
			{"R+1", func(m *chunkfile.Manifest) { m.Replication++ }},
			{"primary-1", func(m *chunkfile.Manifest) { m.Shards[1].Primary-- }},
			{"swapped", func(m *chunkfile.Manifest) { m.Shards[0], m.Shards[2] = m.Shards[2], m.Shards[0] }},
		} {
			bad := *m
			bad.Shards = slices.Clone(m.Shards)
			tc.mutate(&bad)
			cp := copyIndexDir(t, dir, "")
			if err := chunkfile.WriteManifest(filepath.Join(cp, chunkfile.ManifestName), &bad); err != nil {
				t.Fatal(err)
			}
			fx, err := OpenSharded(cp)
			if err == nil {
				fx.Close()
				t.Fatalf("manifest %s opened", tc.name)
			}
			if !strings.Contains(err.Error(), "shard ") {
				t.Fatalf("manifest %s: error names no shard: %v", tc.name, err)
			}
			t.Logf("manifest %s: %v", tc.name, err)
		}
	}
}
