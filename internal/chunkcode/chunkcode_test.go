package chunkcode

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// fuzzChunk draws a chunk of n rows of d dims and a query in one of four
// shapes: normal rows; rows on a few distinct values (ties, empty cells,
// constant dimensions); rows spread over many binary orders of magnitude;
// and normal rows with the query outside the chunk's box in one dimension
// and equal to a row in the others, where that row's bound is as tight as
// a bound gets.
func fuzzChunk(r *rand.Rand, shape, n, d int) (vecs, q []float32) {
	vecs = make([]float32, n*d)
	for i := range vecs {
		switch shape {
		case 1:
			vecs[i] = float32(r.Intn(3))
		case 2:
			vecs[i] = float32(r.NormFloat64() * math.Ldexp(1, r.Intn(60)-30))
		default:
			vecs[i] = float32(r.NormFloat64())
		}
	}
	q = make([]float32, d)
	for i := range q {
		q[i] = float32(r.NormFloat64() * 2)
	}
	if shape == 3 {
		copy(q, vecs[r.Intn(n)*d:])
		q[r.Intn(d)] = float32(10 + r.Float64())
	}
	return vecs, q
}

// FuzzCodeBound pins the bound the code filter rests on, for any rows,
// query, scale and backend. Every cell the real build codes contains its
// row's value. Every row's byte sum over its tables, divided by the scale,
// is at most the row kernel's d² for that row; the scale is drawn as a
// target over some row's d² (what Filter does with the heap's k-th
// distance), over its float64 squared distance nudged up (the scale at
// which a bound without the safety factor, or rounded up, exceeds d²), or
// freely. And on every backend, Filter rejects no row whose d² is within
// the k-th distance it is given.
func FuzzCodeBound(f *testing.F) {
	f.Add(int64(1), uint8(23), uint16(999), uint8(0), uint8(0), uint8(249))
	f.Add(int64(2), uint8(0), uint16(40), uint8(3), uint8(1), uint8(100))
	f.Add(int64(3), uint8(6), uint16(77), uint8(1), uint8(0), uint8(7))
	f.Add(int64(4), uint8(2), uint16(300), uint8(2), uint8(2), uint8(30))
	f.Add(int64(5), uint8(0), uint16(31), uint8(3), uint8(1), uint8(253))
	f.Fuzz(func(t *testing.T, seed int64, dims uint8, rows uint16, shape, mode, target uint8) {
		d, n := 1+int(dims)%MaxDims, 1+int(rows)%1200
		r := rand.New(rand.NewSource(seed))
		vecs, q := fuzzChunk(r, int(shape)%4, n, d)
		var c Codes
		if !Build(vecs, d, &c) {
			t.Fatalf("seed %d: Build refused %d rows of %d finite dims", seed, n, d)
		}
		if got := c.Bytes(); got != Size(n, d) {
			t.Fatalf("Bytes %d, Size %d", got, Size(n, d))
		}
		np := pairs(d)
		for row := 0; row < n; row++ {
			for dim := 0; dim < d; dim++ {
				cell := c.codes[(row/32*np+dim/2)*32+row%32] >> (uint(dim&1) * 4) & 15
				lo, hi, x := c.cells[2*dim*levels+int(cell)], c.cells[(2*dim+1)*levels+int(cell)], vecs[row*d+dim]
				if !(lo <= x && x <= hi) {
					t.Fatalf("seed %d: row %d dim %d value %v coded to cell %d [%v, %v]", seed, row, dim, x, cell, lo, hi)
				}
			}
		}

		d2 := make([]float64, n)
		vec.SquaredDistancesTo(q, vecs, d, d2)
		tr := r.Intn(n)
		var scale float64
		switch N := 1 + float64(target%254); mode % 3 {
		case 0:
			scale = N / d2[tr]
		case 1:
			var real float64
			for dim := range q {
				diff := float64(q[dim]) - float64(vecs[tr*d+dim])
				real += diff * diff
			}
			scale = math.Nextafter(N/real, math.Inf(1))
		default:
			scale = math.Ldexp(1+r.Float64(), r.Intn(80)-40)
		}
		// Filter never scales past limit/minKth2: below minKth2 float32
		// squares underflow and d² leaves the rounding bound.
		if !(scale <= limit/minKth2) {
			scale = limit / minKth2
		}
		tables := make([]byte, np*32)
		for _, backend := range vec.Backends() {
			if err := vec.UseBackend(backend); err != nil {
				t.Fatal(err)
			}
			c.tables(q, scale, tables)
			for row := 0; row < n; row++ {
				sum := 0
				for dim := 0; dim < d; dim++ {
					cell := c.codes[(row/32*np+dim/2)*32+row%32] >> (uint(dim&1) * 4) & 15
					sum += int(tables[dim*levels+int(cell)])
				}
				if float64(sum)/scale > d2[row] {
					t.Fatalf("seed %d %s: row %d: byte sum %d / scale %v = %v > d² %v", seed, backend, row, sum, scale, float64(sum)/scale, d2[row])
				}
			}
		}

		kth2 := d2[tr]
		for _, backend := range vec.Backends() {
			if err := vec.UseBackend(backend); err != nil {
				t.Fatal(err)
			}
			var s Scratch
			mask, ok := c.Filter(q, kth2, &s)
			if ok != (kth2 >= minKth2) {
				t.Fatalf("%s: Filter at k-th distance %v ran %v", backend, kth2, ok)
			}
			for row := 0; ok && row < len(mask)*32; row++ {
				kept := mask[row/32]&(1<<(row%32)) != 0
				if row >= n && kept || row < n && !kept && d2[row] <= kth2 {
					t.Fatalf("seed %d %s: row %d of %d kept %v with d² %v, k-th %v", seed, backend, row, n, kept, d2[row], kth2)
				}
			}
		}
		if err := vec.UseBackend(""); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBuildRefuses pins the chunks Build leaves uncoded: none of them could
// promise a bound.
func TestBuildRefuses(t *testing.T) {
	var c Codes
	for _, tc := range []struct {
		name string
		vecs []float32
		dims int
	}{
		{"no rows", nil, 24},
		{"too many dims", make([]float32, 2*(MaxDims+1)), MaxDims + 1},
		{"NaN", []float32{1, 2, float32(math.NaN()), 4}, 2},
		{"+Inf", []float32{1, float32(math.Inf(1)), 3, 4}, 2},
		{"-Inf", []float32{float32(math.Inf(-1)), 2, 3, 4}, 2},
	} {
		if Build(tc.vecs, tc.dims, &c) {
			t.Errorf("%s: Build coded the chunk", tc.name)
		}
	}
}

// TestMarksEquiPopulated checks the build's purpose: on a chunk of normal
// rows, every cell of every dimension holds close to a sixteenth of them,
// where uniform marks would leave the tails nearly empty.
func TestMarksEquiPopulated(t *testing.T) {
	const n, d = 1000, vec.Dims
	vecs, _ := fuzzChunk(rand.New(rand.NewSource(1)), 0, n, d)
	var c Codes
	if !Build(vecs, d, &c) {
		t.Fatal("Build refused")
	}
	for dim := 0; dim < d; dim++ {
		var count [levels]int
		for row := 0; row < n; row++ {
			count[c.codes[(row/32*pairs(d)+dim/2)*32+row%32]>>(uint(dim&1)*4)&15]++
		}
		for cell, k := range count {
			if k < n/levels/2 || k > 2*n/levels {
				t.Errorf("dim %d cell %d holds %d of %d rows", dim, cell, k, n)
			}
		}
	}
}

// BenchmarkCodeBuild is the build a cache entry pays once, on the hit
// that reaches its build threshold: one 1,000-row chunk of 24-d rows.
func BenchmarkCodeBuild(b *testing.B) {
	vecs, _ := fuzzChunk(rand.New(rand.NewSource(1)), 0, 1000, vec.Dims)
	var c Codes
	b.SetBytes(int64(len(vecs) * 4))
	b.ReportAllocs()
	for b.Loop() {
		if !Build(vecs, vec.Dims, &c) {
			b.Fatal("Build refused")
		}
	}
}
