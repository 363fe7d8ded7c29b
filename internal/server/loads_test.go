package server

import (
	"testing"

	"repro"
)

// TestSnapshotReportsShardLoads pins the serving-load surface: a
// backend's per-shard read counts are copied into the metrics snapshot's
// shard states, and a backend without loads reports its shards with zero
// loads.
func TestSnapshotReportsShardLoads(t *testing.T) {
	b := &fakeBackend{loads: []repro.ShardLoad{{Reads: 11}, {Reads: 7}, {Reads: 0}}}
	reg := NewRegistry()
	if err := reg.Add("main", b); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	snap := m.Snapshot(0, reg)
	if len(snap.Indexes) != 1 || len(snap.Indexes[0].Shards) != 3 {
		t.Fatalf("snapshot shape: %+v", snap.Indexes)
	}
	for s, want := range b.loads {
		if got := snap.Indexes[0].Shards[s]; got.Reads != want.Reads {
			t.Fatalf("shard %d: reads %d != want %d", s, got.Reads, want.Reads)
		}
	}

	// A backend reporting fewer loads than shards (a racing topology
	// change) must not panic and leaves the uncovered shards at zero — no
	// phantom loads.
	plain := indexState("plain", &fakeBackend{})
	if len(plain.Shards) != 1 || plain.Shards[0].Reads != 0 {
		t.Fatalf("plain backend: %+v", plain.Shards)
	}
}
