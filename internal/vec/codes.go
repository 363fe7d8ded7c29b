package vec

import "fmt"

// CodeBlockRows is the row count of one block of scan codes: one 32-byte
// vector holds a dimension pair's codes for 32 rows, low nibble for the
// even dimension and high nibble for the odd one.
const CodeBlockRows = 32

// FilterCodes is the code kernel: the lower-bound pass over 4-bit scan
// codes (the fast-scan layout of André, Kermarrec and Le Scouarnec). codes
// holds whole blocks, each pairs vectors of CodeBlockRows bytes in pair
// order; tables holds one 16-byte lookup table per dimension, 2 × pairs of
// them. For every row it looks up each dimension's table at the row's code
// and sums the bytes, and it sets bit r of mask[b] when the sum for row
// 32b+r is at most limit. It panics when codes is not whole blocks or mask
// is shorter than the block count.
//
// THE CODE KERNEL CONTRACT binds a bound, not values: a backend may clear a
// row's bit only when the row's exact integer sum of table bytes exceeds
// limit. The sum may saturate, or be computed in any order, and backends may
// reject different rows, but never one whose exact sum is within limit. The
// tables' builder makes that sum a lower bound on the row kernel's d², so
// any backend's rejections are exact.
func FilterCodes(codes, tables []byte, pairs int, limit uint8, mask []uint32) {
	if pairs <= 0 || len(codes)%(pairs*CodeBlockRows) != 0 {
		panic(fmt.Sprintf("vec: %d code bytes are not whole blocks of %d pairs", len(codes), pairs))
	}
	if len(tables) < pairs*32 {
		panic(fmt.Sprintf("vec: %d table bytes < %d pairs × 32", len(tables), pairs))
	}
	blocks := len(codes) / (pairs * CodeBlockRows)
	if len(mask) < blocks {
		panic(fmt.Sprintf("vec: mask length %d < %d blocks", len(mask), blocks))
	}
	activeCodes(codes, tables, pairs, blocks, int(limit), mask)
}

// CodeTables is the table builder the code kernel reads: for each
// dimension d of q it writes 16 bytes at dst[16d:], entry c the squared
// gap from q[d] to cell c of d, [cells[32d+c], cells[32d+16+c]], times
// scale, capped at 255 and truncated: max(lo - q, q - hi, 0), squared,
// times scale, min with 255, each step rounded to float32 as written. It
// panics when cells or dst is short for len(q) dimensions.
//
// Backends compute the same bytes from the same float32 steps, so each
// entry is the exact value shrunk by at most a few roundings; the caller
// folds a safety factor into scale to keep the sum of a row's entries
// under its kernel d² (THE CODE KERNEL CONTRACT). A NaN step may give any
// byte on any backend: only a NaN query produces one, and a row whose d²
// is NaN never enters a full heap.
func CodeTables(q, cells []float32, scale float32, dst []byte) {
	if len(cells) < 32*len(q) || len(dst) < 16*len(q) {
		panic(fmt.Sprintf("vec: %d cells or %d table bytes short for %d dims", len(cells), len(dst), len(q)))
	}
	activeTables(q, cells, scale, dst)
}

// codeTablesPortable is the portable table builder.
func codeTablesPortable(q, cells []float32, scale float32, dst []byte) {
	for d, qd := range q {
		lo := cells[32*d : 32*d+16 : 32*d+16]
		hi := cells[32*d+16 : 32*d+32 : 32*d+32]
		t := dst[16*d : 16*d+16 : 16*d+16]
		for c := range t {
			gap := max(lo[c]-qd, qd-hi[c], 0)
			v := float32(gap*gap) * scale // the conversion rules out a fused multiply
			if v >= 255 {                 // an empty cell's +Inf too
				v = 255
			}
			if v >= 0 { // truncates toward zero; a NaN stays 0
				t[c] = byte(v)
			} else {
				t[c] = 0
			}
		}
	}
}

// CodeKernel reports whether the active backend has a SIMD code kernel
// (avx2). Callers build codes only when it does: on any other backend
// (portable, sse2, neon) FilterCodes runs the portable loop, and a coded
// scan through it is slower than the exact one (BenchmarkKernelCodes).
func CodeKernel() bool { return activeHasCodes }

// filterCodesPortable is the portable code kernel: saturating byte sums, as
// the SIMD kernels compute them.
func filterCodesPortable(codes, tables []byte, pairs, blocks, limit int, mask []uint32) {
	var sums [CodeBlockRows]int
	for b := 0; b < blocks; b++ {
		clear(sums[:])
		blk := codes[b*pairs*CodeBlockRows : (b+1)*pairs*CodeBlockRows]
		for p := 0; p < pairs; p++ {
			lo := tables[p*32 : p*32+16 : p*32+16]
			hi := tables[p*32+16 : p*32+32 : p*32+32]
			v := blk[p*CodeBlockRows : (p+1)*CodeBlockRows : (p+1)*CodeBlockRows]
			for r, c := range v {
				sums[r] = min(sums[r]+int(lo[c&15])+int(hi[c>>4]), 255)
			}
		}
		var m uint32
		for r, s := range sums {
			if s <= limit {
				m |= 1 << r
			}
		}
		mask[b] = m
	}
}
