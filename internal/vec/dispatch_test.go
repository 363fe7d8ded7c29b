package vec

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// withBackend runs f with the named kernel backend active, restoring the
// previous backend afterwards.
func withBackend(t testing.TB, name string, f func()) {
	t.Helper()
	prev := Backend()
	if err := UseBackend(name); err != nil {
		t.Fatalf("UseBackend(%q): %v", name, err)
	}
	defer func() {
		if err := UseBackend(prev); err != nil {
			t.Fatalf("restore backend %q: %v", prev, err)
		}
	}()
	f()
}

func TestBackendRegistry(t *testing.T) {
	names := Backends()
	if len(names) == 0 || names[0] != "portable" {
		t.Fatalf("Backends() = %v, want portable first", names)
	}
	found := false
	for _, n := range names {
		if n == Backend() {
			found = true
		}
	}
	if !found {
		t.Fatalf("active backend %q not in Backends() %v", Backend(), names)
	}
	if err := UseBackend("no-such-backend"); err == nil {
		t.Fatal("UseBackend with unknown name: want error, got nil")
	}
	if _, err := selectKernels("no-such-backend"); err == nil {
		t.Fatal("selectKernels with unknown name: want error, got nil")
	}
	if b, err := selectKernels(""); err != nil || b.name != names[len(names)-1] {
		t.Fatalf("selectKernels(\"\") = %q, %v; want best available %q", b.name, err, names[len(names)-1])
	}
}

// crossCheck asserts that the named backend produces byte-identical
// results to the portable reference for both dispatched kernels on one
// random (dims, rows, nq) shape.
func crossCheck(t *testing.T, r *rand.Rand, backend string, dims, rows, nq int) {
	t.Helper()
	backing := make([]float32, rows*dims)
	for i := range backing {
		backing[i] = float32(r.NormFloat64())
	}
	queries := make([]float32, nq*dims)
	for i := range queries {
		queries[i] = float32(r.NormFloat64())
	}
	q := Vector(queries[:dims])

	wantTo := make([]float64, rows)
	squaredDistancesToPortable(q, backing, dims, wantTo)
	wantMulti := make([]float64, nq*rows)
	squaredDistancesMultiPortable(queries, backing, dims, wantMulti)

	gotTo := make([]float64, rows)
	gotMulti := make([]float64, nq*rows)
	withBackend(t, backend, func() {
		SquaredDistancesTo(q, backing, dims, gotTo)
		SquaredDistancesMulti(queries, backing, dims, gotMulti)
	})
	for i := range wantTo {
		if math.Float64bits(gotTo[i]) != math.Float64bits(wantTo[i]) {
			t.Fatalf("%s dims %d rows %d: SquaredDistancesTo[%d] = %x, portable %x",
				backend, dims, rows, i, gotTo[i], wantTo[i])
		}
	}
	for i := range wantMulti {
		if math.Float64bits(gotMulti[i]) != math.Float64bits(wantMulti[i]) {
			t.Fatalf("%s dims %d rows %d nq %d: SquaredDistancesMulti[%d] = %x, portable %x",
				backend, dims, rows, nq, i, gotMulti[i], wantMulti[i])
		}
	}
}

// TestCrossBackendBitIdentity is the property test the dispatch layer
// rests on: every backend available on this CPU is byte-identical to the
// portable reference across dimensionalities (tails included, dims%4 != 0,
// and the paper's 24), row counts (odd ones exercise the AVX2 single-row
// path) and query counts.
func TestCrossBackendBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 17, 23, 24, 25, 31, 32, 33, 48, 100}
	rows := []int{0, 1, 2, 3, 7, 16, 17, 64, 65}
	for _, backend := range Backends() {
		for _, d := range dims {
			for _, n := range rows {
				crossCheck(t, r, backend, d, n, 1+r.Intn(5))
			}
		}
	}
}

// FuzzCrossBackendBitIdentity fuzzes random shapes and data through every
// available backend; `go test` runs the seed corpus, `go test -fuzz` digs
// for shapes the property test missed.
func FuzzCrossBackendBitIdentity(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(5), uint8(2))
	f.Add(int64(2), uint8(7), uint8(3), uint8(1))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(33), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, dims, rows, nq uint8) {
		d := 1 + int(dims)%64
		n := int(rows) % 40
		q := 1 + int(nq)%8
		r := rand.New(rand.NewSource(seed))
		for _, backend := range Backends() {
			crossCheck(t, r, backend, d, n, q)
		}
	})
}

// TestEquivalenceAcrossBackends re-runs the strongest in-package identity
// test under every backend: the batch and multi kernels agree with the
// (portable) SquaredDistance pairwise path byte for byte.
func TestEquivalenceAcrossBackends(t *testing.T) {
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			withBackend(t, backend, func() {
				TestKernelsBitIdentical(t)
				TestMultiKernelBitIdentical(t)
				TestKernelEdgeCases(t)
			})
		})
	}
}

func benchData(dims, rows, nq int) (queries, backing []float32, out []float64) {
	r := rand.New(rand.NewSource(42))
	backing = make([]float32, rows*dims)
	for i := range backing {
		backing[i] = float32(r.NormFloat64())
	}
	queries = make([]float32, nq*dims)
	for i := range queries {
		queries[i] = float32(r.NormFloat64())
	}
	return queries, backing, make([]float64, nq*rows)
}

// BenchmarkKernelSquaredDistancesTo reports per-backend single-query scan
// throughput; B/op × ops/s is the GB/s the perf snapshots record.
func BenchmarkKernelSquaredDistancesTo(b *testing.B) {
	const dims, rows = Dims, 4096
	queries, backing, out := benchData(dims, rows, 1)
	for _, backend := range Backends() {
		b.Run(backend, func(b *testing.B) {
			withBackend(b, backend, func() {
				b.SetBytes(int64(rows * dims * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SquaredDistancesTo(queries[:dims], backing, dims, out)
				}
			})
		})
	}
}

// BenchmarkKernelSquaredDistancesMulti reports per-backend batch scan
// throughput at the batch engine's shape (16 queries × one row block).
func BenchmarkKernelSquaredDistancesMulti(b *testing.B) {
	const dims, rows, nq = Dims, 256, 16
	queries, backing, out := benchData(dims, rows, nq)
	for _, backend := range Backends() {
		b.Run(backend, func(b *testing.B) {
			withBackend(b, backend, func() {
				b.SetBytes(int64(nq * rows * dims * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SquaredDistancesMulti(queries, backing, dims, out)
				}
			})
		})
	}
}

// BenchmarkKernelSquaredDistancesMultiPair reports per-backend
// throughput at the query-pair kernel's native shape — exactly two
// queries sharing one pass over a large row block — isolating the
// row-traffic halving from the batch-size effects of the 16-query
// bench above.
func BenchmarkKernelSquaredDistancesMultiPair(b *testing.B) {
	const dims, rows, nq = Dims, 4096, 2
	queries, backing, out := benchData(dims, rows, nq)
	for _, backend := range Backends() {
		b.Run(backend, func(b *testing.B) {
			withBackend(b, backend, func() {
				b.SetBytes(int64(nq * rows * dims * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SquaredDistancesMulti(queries, backing, dims, out)
				}
			})
		})
	}
}

// BenchmarkKernelOutOfCache is the kernel benchmark that can see memory:
// the benchmarks above rescan one cache-resident block and report the same
// GB/s whatever a kernel does to the memory system, whereas a served query
// streams chunks of a 100 MB index that sit in no cache. Each op scans one
// 1,000-row chunk picked at random from 67 MB of rows — the single-query
// row kernel (To), and the batch engine's shape (Multi: 4 queries over
// 256-row blocks) — on one goroutine and on GOMAXPROCS of them, since
// cores share the memory bandwidth a prefetch competes for. MB/s counts
// the chunk's bytes once: what had to come from memory.
func BenchmarkKernelOutOfCache(b *testing.B) {
	const dims, chunkRows, chunks, nq, block = Dims, 1000, 700, 4, 256
	backing := make([]float32, chunks*chunkRows*dims)
	x := uint32(2463534242)
	for i := range backing { // xorshift32: cheap, and no two chunks alike
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		backing[i] = float32(x>>8) / (1 << 24)
	}
	queries, _, _ := benchData(dims, 0, nq)
	chunk := func(r *rand.Rand) []float32 {
		c := r.Intn(chunks)
		return backing[c*chunkRows*dims : (c+1)*chunkRows*dims]
	}
	to := func(r *rand.Rand, out []float64) {
		SquaredDistancesTo(queries[:dims], chunk(r), dims, out)
	}
	multi := func(r *rand.Rand, out []float64) {
		rows := chunk(r)
		for r0 := 0; r0 < chunkRows; r0 += block {
			bn := min(block, chunkRows-r0)
			SquaredDistancesMulti(queries, rows[r0*dims:(r0+bn)*dims], dims, out[:nq*bn])
		}
	}
	for _, kernel := range []struct {
		name string
		scan func(*rand.Rand, []float64)
	}{{"To", to}, {"Multi", multi}} {
		for _, backend := range Backends() {
			b.Run(kernel.name+"/"+backend+"/goroutines=1", func(b *testing.B) {
				withBackend(b, backend, func() {
					r, out := rand.New(rand.NewSource(1)), make([]float64, nq*chunkRows)
					b.SetBytes(chunkRows * dims * 4)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						kernel.scan(r, out)
					}
				})
			})
			b.Run(kernel.name+"/"+backend+"/goroutines=max", func(b *testing.B) {
				withBackend(b, backend, func() {
					var seed atomic.Int64
					b.SetBytes(chunkRows * dims * 4)
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						r, out := rand.New(rand.NewSource(seed.Add(1))), make([]float64, nq*chunkRows)
						for pb.Next() {
							kernel.scan(r, out)
						}
					})
				})
			})
		}
	}
}
