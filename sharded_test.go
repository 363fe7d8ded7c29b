package repro

import (
	"os"
	"slices"
	"testing"
)

// TestShardedIndexSaveOpenRoundTrip pins the on-disk story on several
// shards: an index reopened from its directory has the built one's shape
// and chunk entries. That it serves byte-identical results is
// FuzzStackVsModel's reopened-store draw.
func TestShardedIndexSaveOpenRoundTrip(t *testing.T) {
	checkSaveOpenRoundTrip(t, 3)
}

// TestSaveOpenRoundTrip pins the single-machine layout: a one-shard
// directory is exactly the paper's chunk file + index file plus the
// manifest.
func TestSaveOpenRoundTrip(t *testing.T) {
	checkSaveOpenRoundTrip(t, 1)
}

func checkSaveOpenRoundTrip(t *testing.T, shards int) {
	t.Helper()
	coll := GenerateCollection(4000, 57)
	sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 180}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	dir := t.TempDir()
	if err := sx.Save(dir); err != nil {
		t.Fatal(err)
	}
	if shards == 1 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"manifest", "shard-0.chunk", "shard-0.idx"}; !slices.Equal(names, want) {
			t.Fatalf("one-shard directory holds %v, want %v", names, want)
		}
	}
	fx, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	if fx.Shards() != shards || fx.Chunks() != sx.Chunks() || fx.Len() != sx.Len() {
		t.Fatalf("S=%d reopened shape: shards=%d chunks=%d/%d len=%d/%d",
			shards, fx.Shards(), fx.Chunks(), sx.Chunks(), fx.Len(), sx.Len())
	}
	for i, m := range fx.router.Meta() {
		if built := sx.router.Meta()[i]; m.Bytes != built.Bytes || m.Count != built.Count {
			t.Fatalf("S=%d: reopened chunk %d holds %d rows in %d bytes, built %d in %d",
				shards, i, m.Count, m.Bytes, built.Count, built.Bytes)
		}
	}

	// Only built indexes can be saved.
	if err := fx.Save(t.TempDir()); err == nil {
		t.Fatal("saving a file-opened index succeeded")
	}
}
