package server

import (
	"testing"
	"time"

	"repro"
)

// TestSnapshotReportsShardLoads pins the serving-load surface: a
// backend's per-shard read counts and billed microseconds are copied
// into the metrics snapshot's shard states, and a backend without loads
// reports its shards with zero loads.
func TestSnapshotReportsShardLoads(t *testing.T) {
	b := &fakeBackend{loads: []repro.ShardLoad{
		{Reads: 11, Billed: 1500 * time.Microsecond},
		{Reads: 7, Billed: 250 * time.Microsecond},
		{Reads: 0, Billed: 0},
	}}
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
		got := snap.Indexes[0].Shards[s]
		if got.Reads != want.Reads || got.BilledUs != want.Billed.Microseconds() {
			t.Fatalf("shard %d: (reads %d, billed %dus) != want (%d, %dus)",
				s, got.Reads, got.BilledUs, want.Reads, want.Billed.Microseconds())
		}
	}

	// A backend reporting fewer loads than shards (a racing topology
	// change) must not panic and leaves the uncovered shards at zero — no
	// phantom loads.
	plain := indexState("plain", &fakeBackend{})
	if len(plain.Shards) != 1 || plain.Shards[0].Reads != 0 || plain.Shards[0].BilledUs != 0 {
		t.Fatalf("plain backend: %+v", plain.Shards)
	}
}
