package server

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultstore"
)

// parkedBackend counts its Probe calls and parks each one until release
// is closed, so a test can hold the probe loop mid-probe.
type parkedBackend struct {
	fakeBackend
	probes  atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (b *parkedBackend) Probe() {
	b.probes.Add(1)
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
}

// probedBackend counts the probes the server's loop has completed on a
// router-backed index.
type probedBackend struct {
	*routerBackend
	probes atomic.Int64
}

func (b *probedBackend) Probe() {
	b.routerBackend.Probe()
	b.probes.Add(1)
}

// probing serves b under a server whose probe loop ticks every
// millisecond; the server is shut down, and b closed, when t ends.
func probing(t *testing.T, b *routerBackend) *probedBackend {
	t.Helper()
	pb := &probedBackend{routerBackend: b}
	reg := NewRegistry()
	if err := reg.Add("sharded", pb); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{ProbeInterval: time.Millisecond})
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	s.Start()
	return pb
}

// await returns once the loop has completed n more probes, so at least
// n-1 whole probes began after the call.
func (b *probedBackend) await(t *testing.T, n int64) {
	t.Helper()
	want := b.probes.Load() + n
	for deadline := time.Now().Add(5 * time.Second); b.probes.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the probe loop completed %d of %d probes in 5s", n-(want-b.probes.Load()), n)
		}
	}
}

// TestProberMarksDeadShardDownAndRecovers pins the server's probe loop
// end to end over a router: a shard that dies is marked down by the loop
// before any paying query finds out, stays down while it stays dead, and
// returns to full-coverage answers once its store comes back.
func TestProberMarksDeadShardDownAndRecovers(t *testing.T) {
	rb, faults, coll := faultedRouter(t, 3000, 11, 3, 1, faultstore.Config{})
	b := probing(t, rb)

	b.await(t, 2)
	if got := b.ShardsDown(); got != 0 {
		t.Fatalf("probes of a healthy fleet marked %d shards down", got)
	}

	// The shard dies. The loop notices before any paying query does.
	faults[0].Kill()
	b.await(t, 2)
	if !b.ShardDown(0) {
		t.Fatal("the probe loop did not mark the dead shard down")
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

	// While the shard stays dead, further probes keep it down: no
	// flapping.
	b.await(t, 3)
	if !b.ShardDown(0) || b.ShardsDown() != 1 {
		t.Fatal("the probe loop recovered a still-dead shard")
	}

	// The store comes back: the loop recovers the shard and answers go
	// back to full coverage.
	faults[0].Revive()
	b.await(t, 2)
	if b.ShardDown(0) {
		t.Fatal("the probe loop did not recover the revived shard")
	}
	res, err = b.search(coll.Vec(42), repro.SearchOptions{K: 10, MaxChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.ChunksSkipped != 0 || b.ShardsDown() != 0 {
		t.Fatalf("post-recovery result still degraded: %+v, %d shards down", res, b.ShardsDown())
	}
}

// TestProberIgnoresTransientFailures pins that the server's probe loop
// treats Temporary() read errors as evidence of neither death nor
// recovery.
func TestProberIgnoresTransientFailures(t *testing.T) {
	// Every read fails transiently.
	rb, _, _ := faultedRouter(t, 2000, 7, 2, 1, faultstore.Config{Seed: faultSeed(t), TransientProb: 1})
	b := probing(t, rb)

	b.await(t, 3)
	if got := b.ShardsDown(); got != 0 {
		t.Fatalf("transient probe failures marked %d shards down", got)
	}
	// A down shard with transient probe failures stays down: recovery
	// needs a clean probe, not a flaky one.
	b.r.MarkShardDown(1)
	b.await(t, 3)
	if !b.ShardDown(1) || b.ShardsDown() != 1 {
		t.Fatal("a transient probe failure recovered a down shard")
	}
}

// TestProberStartStopLifecycle pins the server's probe loop: Start twice
// runs one loop, Shutdown waits for a probe in progress and leaves no
// goroutine behind, Start after Shutdown starts nothing, and Shutdown
// before Start does not block.
func TestProberStartStopLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	b := &parkedBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	reg := NewRegistry()
	if err := reg.Add("main", b); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{ProbeInterval: time.Millisecond})
	s.Start()
	s.Start()
	select {
	case <-b.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the probe loop never probed")
	}
	// Twenty intervals with the first probe parked: a second loop would
	// have entered Probe too.
	time.Sleep(20 * time.Millisecond)
	if n := b.probes.Load(); n != 1 {
		t.Fatalf("%d probes under a parked one: Start twice ran more than one loop", n)
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-shut:
		t.Fatal("Shutdown returned while a probe was running")
	default:
	}
	close(b.release)
	select {
	case err := <-shut:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never joined the probe loop")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: baseline %d, %d after Shutdown", baseline, runtime.NumGoroutine())
		}
	}

	probes := b.probes.Load()
	s.Start()
	time.Sleep(20 * time.Millisecond)
	if n := b.probes.Load(); n != probes || runtime.NumGoroutine() > baseline {
		t.Fatalf("Start after Shutdown probed %d more times, %d goroutines over baseline", n-probes, runtime.NumGoroutine()-baseline)
	}

	early := New(NewRegistry(), Config{})
	if err := early.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	early.Start()
	if runtime.NumGoroutine() > baseline {
		t.Fatal("Start after a Shutdown that preceded it launched the loop")
	}
}
