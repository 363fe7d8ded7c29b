package faultstore

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// memStore builds a small in-memory store with three chunks.
func memStore(t *testing.T) *chunkfile.MemStore {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	coll := descriptor.NewCollection(vec.Dims, 60)
	v := make(vec.Vector, vec.Dims)
	for i := 0; i < 60; i++ {
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		coll.Append(descriptor.ID(i), v)
	}
	var members [3][]int
	for i := 0; i < 60; i++ {
		members[i%3] = append(members[i%3], i)
	}
	cs := make([]*cluster.Cluster, 3)
	for i := range cs {
		cs[i] = cluster.NewFromMembers(coll, members[i])
	}
	return chunkfile.NewMemStore(coll, cs)
}

// A zero Config must be a transparent passthrough.
func TestZeroConfigPassthrough(t *testing.T) {
	fs := Wrap(memStore(t), Config{})
	var data chunkfile.Data
	for i := 0; i < 3; i++ {
		if err := fs.ReadChunk(i, &data); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if fs.Dead() {
		t.Fatal("zero-config store died")
	}
	if fs.Reads() != 3 {
		t.Fatalf("Reads() = %d, want 3", fs.Reads())
	}
}

// The same seed must fail exactly the same read ordinals on every run,
// and the injected errors must classify as temporary ErrTransient.
func TestTransientDeterminismAndClassification(t *testing.T) {
	const n = 200
	failed := func() []bool {
		fs := Wrap(memStore(t), Config{Seed: 42, TransientProb: 0.3})
		var data chunkfile.Data
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			err := fs.ReadChunk(i%3, &data)
			out[i] = err != nil
			if err != nil {
				if !errors.Is(err, ErrTransient) {
					t.Fatalf("read %d: error does not wrap ErrTransient: %v", i, err)
				}
				var te interface{ Temporary() bool }
				if !errors.As(err, &te) || !te.Temporary() {
					t.Fatalf("read %d: transient error not Temporary(): %v", i, err)
				}
			}
		}
		return out
	}
	a, b := failed(), failed()
	some := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: fault decision differs across runs", i)
		}
		some = some || a[i]
	}
	if !some {
		t.Fatal("TransientProb=0.3 injected no faults in 200 reads")
	}
}

// FailAfter must kill the store after exactly that many successful
// reads, and ErrDead must not classify as temporary.
func TestFailAfterKillsPermanently(t *testing.T) {
	fs := Wrap(memStore(t), Config{FailAfter: 2})
	var data chunkfile.Data
	for i := 0; i < 2; i++ {
		if err := fs.ReadChunk(i, &data); err != nil {
			t.Fatalf("read %d before FailAfter: %v", i, err)
		}
	}
	if !fs.Dead() {
		t.Fatal("store not dead after FailAfter successful reads")
	}
	err := fs.ReadChunk(0, &data)
	if !errors.Is(err, ErrDead) {
		t.Fatalf("read after death = %v, want ErrDead", err)
	}
	var te interface{ Temporary() bool }
	if errors.As(err, &te) && te.Temporary() {
		t.Fatal("ErrDead classified as temporary")
	}
}

// Kill takes effect immediately and Meta stays readable on a dead store.
func TestKillIsImmediateAndMetaSurvives(t *testing.T) {
	fs := Wrap(memStore(t), Config{})
	fs.Kill()
	var data chunkfile.Data
	if err := fs.ReadChunk(0, &data); !errors.Is(err, ErrDead) {
		t.Fatalf("read after Kill = %v, want ErrDead", err)
	}
	if len(fs.Meta()) != 3 {
		t.Fatalf("Meta() on dead store returned %d chunks, want 3", len(fs.Meta()))
	}
	if fs.Dims() != vec.Dims {
		t.Fatalf("Dims() on dead store = %d", fs.Dims())
	}
}
