package server

import (
	"testing"
	"time"

	"repro"
	"repro/internal/faultstore"
)

func TestProberMarksDeadShardDownAndRecovers(t *testing.T) {
	b, faults, coll := faultedRouter(t, 3000, 11, 3, 1, faultstore.Config{})
	reg := NewRegistry()
	if err := reg.Add("sharded", b); err != nil {
		t.Fatal(err)
	}
	defer reg.CloseAll()
	p := NewProber(reg, time.Hour) // driven by explicit sweeps

	p.Sweep()
	if got := b.ShardsDown(); got != 0 {
		t.Fatalf("healthy sweep marked %d shards down", got)
	}

	// The shard dies. A sweep notices before any paying query does.
	faults[0].Kill()
	p.Sweep()
	if !b.ShardDown(0) {
		t.Fatal("sweep did not mark the dead shard down")
	}

	// Queries keep serving, honestly degraded (R=1: no replica covers
	// the dead shard's chunks).
	res, err := b.search(coll.Vec(42), repro.SearchOptions{K: 10, MaxChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.ChunksSkipped == 0 || b.ShardsDown() != 1 {
		t.Fatalf("dead-shard result not honestly degraded: %+v, %d shards down", res, b.ShardsDown())
	}

	// While the shard stays dead, repeated sweeps keep it down — no
	// flapping, and still serving degraded.
	p.Sweep()
	if !b.ShardDown(0) {
		t.Fatal("sweep recovered a still-dead shard")
	}

	// The replica comes back: the next sweep recovers the shard and
	// results go back to full coverage.
	faults[0].Revive()
	p.Sweep()
	if b.ShardDown(0) {
		t.Fatal("sweep did not recover the revived shard")
	}
	res, err = b.search(coll.Vec(42), repro.SearchOptions{K: 10, MaxChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.ChunksSkipped != 0 || b.ShardsDown() != 0 {
		t.Fatalf("post-recovery result still degraded: %+v, %d shards down", res, b.ShardsDown())
	}
}

func TestProberIgnoresTransientFailures(t *testing.T) {
	// Every read fails transiently: probes see Temporary() errors, which
	// are evidence of neither death nor recovery.
	b, _, _ := faultedRouter(t, 2000, 7, 2, 1, faultstore.Config{Seed: faultSeed(t), TransientProb: 1})
	reg := NewRegistry()
	if err := reg.Add("flaky", b); err != nil {
		t.Fatal(err)
	}
	defer reg.CloseAll()
	p := NewProber(reg, time.Hour)

	p.Sweep()
	if got := b.ShardsDown(); got != 0 {
		t.Fatalf("transient probe failures marked %d shards down", got)
	}
	// A down shard with transient probe failures stays down: recovery
	// needs a clean probe, not a flaky one.
	b.MarkShardDown(1)
	p.Sweep()
	if !b.ShardDown(1) {
		t.Fatal("transient probe failure recovered a down shard")
	}
}

func TestProberStartStopLifecycle(t *testing.T) {
	reg := NewRegistry()
	p := NewProber(reg, time.Millisecond)
	p.Start()
	p.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent

	// Stop before Start must not block, and pins the prober off.
	p2 := NewProber(reg, time.Millisecond)
	done := make(chan struct{})
	go func() {
		p2.Stop()
		p2.Start() // no-op after Stop
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop before Start deadlocked")
	}
}
