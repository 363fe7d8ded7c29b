// Package faultstore wraps any chunkfile.Store with deterministic,
// seed-driven fault injection, so the shard router's failure paths —
// retry, failover, degraded completion — are unit-testable and
// race-testable without real hardware.
//
// Three fault classes are modeled:
//
//   - Transient errors: each ReadChunk is independently failed with
//     probability TransientProb, decided by hashing (Seed, read ordinal)
//     — the same seed always fails the same ordinals, regardless of
//     goroutine interleaving. Transient errors wrap ErrTransient and
//     report Temporary() == true, the signal the router's retry loop
//     keys on (the net.Error convention).
//   - Permanent death: after FailAfter successful reads — or immediately
//     after Kill — every ReadChunk fails with ErrDead, which is not
//     temporary. This models a shard's disk dying mid-workload.
//   - Added latency: Latency is really slept before each read, to widen
//     race windows under -race and to model a slow replica.
//
// The wrapper is transparent when Config is zero: every read passes
// straight through. Faults are injected before the underlying read, so
// a failed attempt never touches the wrapped store.
package faultstore

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chunkfile"
)

// Errors injected by the store.
var (
	// ErrTransient marks an injected transient fault: the read failed but
	// retrying may succeed. Errors wrapping it report Temporary() == true.
	ErrTransient = errors.New("faultstore: transient read error")
	// ErrDead marks a permanently failed store: every read fails and no
	// retry will ever succeed. It is not temporary.
	ErrDead = errors.New("faultstore: store is dead")
)

// transientError is the concrete injected transient fault; it implements
// the Temporary() classification consumers test for via errors.As.
type transientError struct {
	ordinal int64
}

func (e *transientError) Error() string {
	return fmt.Sprintf("faultstore: transient read error (ordinal %d)", e.ordinal)
}

// Unwrap makes errors.Is(err, ErrTransient) work.
func (e *transientError) Unwrap() error { return ErrTransient }

// Temporary reports that retrying the read may succeed.
func (e *transientError) Temporary() bool { return true }

// Config selects which faults to inject. The zero value injects nothing.
type Config struct {
	// Seed drives the per-read fault decisions. The same seed yields the
	// same decision for the same read ordinal on every run, independent of
	// goroutine scheduling.
	Seed int64
	// TransientProb is the probability in [0, 1] that any given read fails
	// with a transient (retryable) error.
	TransientProb float64
	// FailAfter, when positive, kills the store permanently after that
	// many successful reads: every later read returns ErrDead.
	FailAfter int64
	// Latency is really slept before each read attempt (including ones
	// that will fail), widening race windows and modeling a slow replica.
	Latency time.Duration
}

// Store wraps an inner chunkfile.Store with fault injection. It is safe
// for concurrent use whenever the inner store is: the fault state is a
// pair of atomics.
type Store struct {
	inner chunkfile.Store
	cfg   Config
	// threshold is cfg.TransientProb mapped onto the uint64 hash range.
	threshold uint64
	ordinal   atomic.Int64 // reads attempted, 1-based after Add
	succeeded atomic.Int64 // reads that reached the inner store
	dead      atomic.Bool
}

var _ chunkfile.Store = (*Store)(nil)

// Wrap decorates st with fault injection per cfg. The wrapped store is
// not closed by the wrapper's Close beyond delegating to it.
func Wrap(st chunkfile.Store, cfg Config) *Store {
	p := cfg.TransientProb
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	var threshold uint64
	if p > 0 {
		threshold = uint64(p * float64(1<<63) * 2) // p×2⁶⁴ without overflow at p=1
		if p >= 1 {
			threshold = ^uint64(0)
		}
	}
	return &Store{inner: st, cfg: cfg, threshold: threshold}
}

// Kill permanently fails the store: every subsequent ReadChunk returns an
// error wrapping ErrDead. Killing is idempotent and takes effect
// immediately on all goroutines.
func (s *Store) Kill() { s.dead.Store(true) }

// Revive undoes Kill (and a FailAfter death): reads pass through to the
// inner store again. It models the operator replacing the dead disk —
// the store-side half of a recovery drill; the router side is the next
// Probe, which reads the store again and returns its shard to rotation.
// The FailAfter countdown is not reset: a revived store with FailAfter
// set dies again on its next read.
func (s *Store) Revive() { s.dead.Store(false) }

// Dead reports whether the store has died (via Kill or FailAfter).
func (s *Store) Dead() bool { return s.dead.Load() }

// Reads returns the number of ReadChunk attempts made so far.
func (s *Store) Reads() int64 { return s.ordinal.Load() }

// Dims implements chunkfile.Store.
func (s *Store) Dims() int { return s.inner.Dims() }

// Meta implements chunkfile.Store. The chunk index is metadata, not a
// disk read: it stays readable even on a dead store, mirroring a router
// that cached the index before the disk died.
func (s *Store) Meta() []chunkfile.Meta { return s.inner.Meta() }

// Centroids implements chunkfile.Store; like Meta it survives a dead disk.
func (s *Store) Centroids() []float32 { return s.inner.Centroids() }

// ReadChunk implements chunkfile.Store, injecting faults before
// delegating. Fault decisions depend only on (Seed, ordinal), so a fixed
// seed replays the same fault sequence on every run.
func (s *Store) ReadChunk(i int, data *chunkfile.Data) error {
	ord := s.ordinal.Add(1)
	if s.cfg.Latency > 0 {
		time.Sleep(s.cfg.Latency)
	}
	if s.dead.Load() {
		return fmt.Errorf("faultstore: chunk %d: %w", i, ErrDead)
	}
	if s.threshold > 0 && mix(uint64(s.cfg.Seed), uint64(ord)) < s.threshold {
		return fmt.Errorf("faultstore: chunk %d: %w", i, &transientError{ordinal: ord})
	}
	if err := s.inner.ReadChunk(i, data); err != nil {
		return err
	}
	if n := s.succeeded.Add(1); s.cfg.FailAfter > 0 && n >= s.cfg.FailAfter {
		s.dead.Store(true)
	}
	return nil
}

// Close implements chunkfile.Store by closing the inner store.
func (s *Store) Close() error { return s.inner.Close() }

// mix hashes (seed, ordinal) to a uniform uint64 — the finalizer of
// splitmix64, which passes through every avalanche test that matters for
// turning a counter into independent coin flips.
func mix(seed, ord uint64) uint64 {
	z := seed + ord*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
