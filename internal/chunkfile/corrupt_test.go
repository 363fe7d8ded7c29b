package chunkfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// saveShardedFixture writes a 3-shard sharded index into a temp dir,
// one cluster per shard.
func saveShardedFixture(t *testing.T) string {
	t.Helper()
	coll, cs := makeClusters(t)
	dir := t.TempDir()
	shards := [][]*cluster.Cluster{{cs[0]}, {cs[1]}, {cs[2]}}
	if err := SaveSharded(coll, shards, []int{1, 1, 1}, 1, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A missing shard file must fail at open, naming both the shard index
// and the offending path so the operator knows which file to restore.
func TestOpenShardedMissingShardNamesShard(t *testing.T) {
	dir := saveShardedFixture(t)
	victim := filepath.Join(dir, "shard-2.chunk")
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	stores, _, err := OpenSharded(dir)
	if err == nil {
		for _, st := range stores {
			st.Close()
		}
		t.Fatal("OpenSharded succeeded with shard-2.chunk missing")
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("error does not name shard 2: %v", err)
	}
	if !strings.Contains(err.Error(), victim) {
		t.Fatalf("error does not name path %s: %v", victim, err)
	}
}

// A truncated shard chunk file must fail diagnostically at open — no
// panic, and the error names the shard.
func TestOpenShardedTruncatedChunkFile(t *testing.T) {
	dir := saveShardedFixture(t)
	victim := filepath.Join(dir, "shard-1.chunk")
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	stores, _, err := OpenSharded(dir)
	if err == nil {
		for _, st := range stores {
			st.Close()
		}
		t.Fatal("OpenSharded succeeded with a truncated shard-1.chunk")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error does not name shard 1: %v", err)
	}
}

// A manifest whose per-shard chunk count disagrees with the shard's
// index file must fail the open-time cross-check.
func TestOpenShardedManifestChunkCountMismatch(t *testing.T) {
	dir := saveShardedFixture(t)
	mpath := filepath.Join(dir, ManifestName)
	m, err := ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	m.Shards[0].Chunks++
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	stores, _, err := OpenSharded(dir)
	if err == nil {
		for _, st := range stores {
			st.Close()
		}
		t.Fatal("OpenSharded succeeded despite manifest chunk-count mismatch")
	}
	if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("error does not diagnose the manifest mismatch on shard 0: %v", err)
	}
}
