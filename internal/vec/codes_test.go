package vec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestFilterCodes holds every backend to the code kernel contract on
// random blocks, tables and limits (0 and 255 included): a row's bit is
// cleared only when its exact sum of table bytes exceeds the limit. The
// portable kernel keeps exactly the rows whose sum, saturated at 255, is
// within the limit.
func TestFilterCodes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		pairs, blocks := 1+r.Intn(32), 1+r.Intn(5)
		codes := make([]byte, blocks*pairs*CodeBlockRows)
		r.Read(codes)
		tables := make([]byte, pairs*32)
		spread := 1 + r.Intn(256) // small entries keep sums near the limit
		for i := range tables {
			tables[i] = byte(r.Intn(spread))
		}
		limit := uint8(r.Intn(256))
		for _, backend := range Backends() {
			mask := make([]uint32, blocks)
			withBackend(t, backend, func() { FilterCodes(codes, tables, pairs, limit, mask) })
			for row := 0; row < blocks*CodeBlockRows; row++ {
				b, in := row/CodeBlockRows, row%CodeBlockRows
				sum := 0
				for p := 0; p < pairs; p++ {
					c := codes[(b*pairs+p)*CodeBlockRows+in]
					sum += int(tables[p*32+int(c&15)]) + int(tables[p*32+16+int(c>>4)])
				}
				kept := mask[b]&(1<<in) != 0
				if !kept && sum <= int(limit) {
					t.Fatalf("%s: pairs %d row %d: rejected with sum %d <= limit %d", backend, pairs, row, sum, limit)
				}
				if backend == "portable" && kept != (min(sum, 255) <= int(limit)) {
					t.Fatalf("portable: pairs %d row %d: kept %v with sum %d, limit %d", pairs, row, kept, sum, limit)
				}
			}
		}
	}
}

// TestCodeTables holds every backend's table builder to the portable
// one's bytes on random queries and cells (empty ±Inf cells, gaps that
// cap at 255 and gaps that truncate to 0 included).
func TestCodeTables(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		dims := 1 + r.Intn(64)
		q, cells := make([]float32, dims), make([]float32, 32*dims)
		for i := range q {
			q[i] = float32(r.NormFloat64() * 3)
		}
		for d := range dims {
			for c := range 16 {
				lo := float32(r.NormFloat64() * 3)
				hi := lo + float32(r.ExpFloat64())
				if r.Intn(10) == 0 {
					lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
				}
				cells[32*d+c], cells[32*d+16+c] = lo, hi
			}
		}
		scale := float32(math.Ldexp(1+r.Float64(), r.Intn(20)-5))
		want := make([]byte, 16*dims)
		codeTablesPortable(q, cells, scale, want)
		for _, backend := range Backends() {
			got := make([]byte, 16*dims)
			withBackend(t, backend, func() { CodeTables(q, cells, scale, got) })
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: dims %d scale %v: tables differ from portable's", backend, dims, scale)
			}
		}
	}
}
