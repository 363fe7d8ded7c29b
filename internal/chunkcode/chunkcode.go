// Package chunkcode holds a chunk's scan codes: 4 bits per row and
// dimension, in per-chunk, per-dimension equi-populated cells — the
// VA-File's cells (Weber, Schek and Blott; the paper's §6), laid out for
// the fast-scan lookup of André, Kermarrec and Le Scouarnec. A query turns
// the cells into one 16-entry byte table per dimension, and
// vec.FilterCodes sums a row's table bytes into a lower bound on its
// squared distance, so a scan computes the exact distance only for rows
// whose bound does not exceed the heap's current k-th distance.
//
// The filter is exact by construction. A table byte is the squared
// distance from the query to the nearest point of the row's cell, scaled,
// shrunk by a safety factor that covers the float32 rounding of the row
// kernel, and truncated, so a row's byte sum never exceeds its kernel d²
// at that scale. A row is rejected only when its sum exceeds the scaled
// k-th distance, that is, when it is strictly worse than every row the
// heap holds.
package chunkcode

import (
	"math"
	"sync"

	"repro/internal/vec"
)

const (
	// levels is the number of cells per dimension: 4-bit codes.
	levels = 16
	// bins is the histogram resolution of the build: a dimension's cells
	// are runs of bins uniform bins over its range in the chunk.
	bins = 256
	// MaxDims bounds the dimensionality Build codes. The safety factor
	// covers the row kernel's rounding for far more, but no collection in
	// the repository exceeds it.
	MaxDims = 64
	// limit is the byte sum the heap's k-th distance maps to. Sums
	// saturate at 255, so the limit leaves a few steps above it for a
	// row to be rejected by.
	limit = 250
	// safety shrinks every table entry. The row kernel's float32 d² is
	// at least (1 - 2⁻²⁴·(dims/4+4)) times the real squared distance
	// (a rounded difference, product and sum per element of a lane, and
	// the lane combine), and the float32 table arithmetic rounds up by
	// at most 2⁻²⁴ in each of a few steps: 2⁻¹⁰ covers both many times
	// over up to MaxDims, at a cost of one scaled step in a thousand.
	safety = 1 - 1.0/1024
	// minKth2 is the smallest k-th distance the filter runs at. Below it
	// the row kernel's squares may underflow float32, and its d² is no
	// longer within a relative error of the real value.
	minKth2 = 1e-30
)

// Codes is one chunk's scan codes: each cell's range and the coded rows.
// It is immutable once built, and safe to read from many goroutines.
type Codes struct {
	rows, dims int
	// cells holds each cell's range, 32 floats per dimension: cell c of
	// dimension d spans [cells[32d+c], cells[32d+16+c]], the smallest and
	// largest value coded to it (+Inf and -Inf when it codes none), the
	// layout vec.CodeTables reads.
	cells []float32
	// codes holds blocks of vec.CodeBlockRows rows; within a block, one
	// vector of 32 bytes per dimension pair p: byte r is row r's cell in
	// dimension 2p (low nibble) and 2p+1 (high nibble). Rows past the end
	// of the chunk code 0.
	codes []byte
}

// pairs is the number of dimension pairs, the odd dimension of an odd
// count paired with a dimension whose table is all zero.
func pairs(dims int) int { return (dims + 1) / 2 }

// Size reports the bytes Build allocates for a chunk of rows × dims: the
// charge a cache budgets before building.
func Size(rows, dims int) int64 {
	blocks := (rows + vec.CodeBlockRows - 1) / vec.CodeBlockRows
	return int64(dims*levels*2*4 + blocks*pairs(dims)*vec.CodeBlockRows)
}

// Bytes reports the memory c holds.
func (c *Codes) Bytes() int64 { return int64(cap(c.cells)*4 + cap(c.codes)) }

// Build codes the rows of one chunk (len(vecs)/dims rows of dims float32s,
// the layout of chunkfile.Data.Vecs) into c, reusing c's memory when it is
// large enough. It reports false, leaving c unusable, when the chunk cannot
// be coded: no rows, more than MaxDims dimensions, or a value that is not
// finite.
//
// Each dimension's cells come from a histogram of bins uniform bins over
// the chunk's range: a cell is the run of bins between the bin edges
// nearest two consecutive 1/16 quantiles, so every cell codes about a
// sixteenth of the rows. A row's code is its bin's cell, and the cell's
// range is that of the values it codes, so every cell contains them.
func Build(vecs []float32, dims int, c *Codes) bool {
	if dims <= 0 || dims > MaxDims || len(vecs) == 0 || len(vecs)%dims != 0 {
		return false
	}
	rows := len(vecs) / dims
	np := pairs(dims)
	nc := (rows + vec.CodeBlockRows - 1) / vec.CodeBlockRows * np * vec.CodeBlockRows
	if cap(c.cells) < dims*levels*2 {
		c.cells = make([]float32, dims*levels*2)
	}
	if cap(c.codes) < nc {
		c.codes = make([]byte, nc)
	}
	c.rows, c.dims, c.cells, c.codes = rows, dims, c.cells[:dims*levels*2], c.codes[:nc]

	b := builds.Get().(*build)
	defer builds.Put(b)
	lo, hi := b.lo[:dims], b.hi[:dims]
	copy(lo, vecs[:dims])
	copy(hi, vecs[:dims])
	for i := 0; i < len(vecs); i += dims {
		for d, x := range vecs[i : i+dims] {
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
			if x != x { // NaN
				return false
			}
		}
	}
	for d := range dims {
		if f, g := float64(lo[d]), float64(hi[d]); f-f != 0 || g-g != 0 { // ±Inf
			return false
		}
	}
	if cap(b.bin) < len(vecs) {
		b.bin = make([]byte, len(vecs))
	}
	bin := b.bin[:len(vecs)]
	for d := range dims { // dimension-major: one histogram at a time
		inv := 0.0
		if hi[d] > lo[d] {
			inv = bins / (float64(hi[d]) - float64(lo[d]))
		}
		base := float64(lo[d])
		clear(b.cum[:])
		for i := d; i < len(vecs); i += dims {
			j := min(int((float64(vecs[i])-base)*inv), bins-1)
			bin[i] = byte(j)
			b.cum[j+1]++
		}
		b.cut(d, rows)
	}
	for i := range c.cells {
		c.cells[i] = float32(math.Inf(1 - 2*(i/levels&1)))
	}
	clear(c.codes[rows/vec.CodeBlockRows*np*vec.CodeBlockRows:])
	for r := 0; r < rows; r++ {
		blk := c.codes[r/vec.CodeBlockRows*np*vec.CodeBlockRows+r%vec.CodeBlockRows:]
		x, rb := vecs[r*dims:(r+1)*dims], bin[r*dims:(r+1)*dims]
		var pair byte
		for d, j := range rb {
			cell := b.lookup[d][j]
			lo, hi := &c.cells[2*d*levels+int(cell)], &c.cells[(2*d+1)*levels+int(cell)]
			if x[d] < *lo {
				*lo = x[d]
			}
			if x[d] > *hi {
				*hi = x[d]
			}
			if d&1 == 0 {
				pair = cell
			} else {
				blk[d/2*vec.CodeBlockRows] = pair | cell<<4
			}
		}
		if dims&1 == 1 {
			blk[dims/2*vec.CodeBlockRows] = pair
		}
	}
	return true
}

// build is the scratch of one Build, pooled: the chunk's range, the
// histogram of the dimension in hand, every dimension's bin-to-cell lookup,
// and every value's bin.
type build struct {
	lo, hi [MaxDims]float32
	cum    [bins + 1]int32 // cum[e]: rows in the bins below edge e
	lookup [MaxDims][bins]byte
	bin    []byte
}

var builds = sync.Pool{New: func() any { return new(build) }}

// cut turns the histogram into dimension d's lookup: cell c runs from bin
// edge cut[c] to cut[c+1], each cut the edge whose count below it is
// nearest c/16 of the rows.
func (b *build) cut(d, rows int) {
	cum := &b.cum
	for e := 1; e <= bins; e++ {
		cum[e] += cum[e-1]
	}
	cell, e := 0, 0
	for next := 1; next < levels; next++ {
		// |cum - next·rows/16|, scaled by 16 to stay in integers.
		off := func(e int) int { return abs(levels*int(cum[e]) - next*rows) }
		for e < bins && off(e+1) <= off(e) {
			e++
		}
		for ; cell < e; cell++ {
			b.lookup[d][cell] = byte(next - 1)
		}
	}
	for ; cell < bins; cell++ {
		b.lookup[d][cell] = levels - 1
	}
}

// Scratch is one scanning goroutine's filter memory: the query's tables
// and the survivor mask. The zero value is ready; it grows to the largest
// chunk filtered and is then reused without allocating.
type Scratch struct {
	tables []byte
	mask   []uint32
}

// tables writes q's lookup tables at scale into dst, 16 bytes per
// dimension and 2 × pairs dimensions: entry c of dimension d is the squared
// distance from q[d] to cell c's range, times scale × safety, truncated and
// capped at 255 (vec.CodeTables). A phantom odd dimension's table is zero.
func (c *Codes) tables(q []float32, scale float64, dst []byte) {
	clear(dst[c.dims*levels:])
	vec.CodeTables(q[:c.dims], c.cells, float32(scale*safety), dst)
}

// Filter runs the code kernel for query q against kth2, the heap's k-th
// squared distance, and returns the survivor mask: bit r of mask[b] is set
// for row 32b+r unless the row's exact d² is provably greater than kth2.
// It reports false, doing nothing, when kth2 gives the codes nothing to
// reject with: a heap still filling (+Inf), or a k-th distance too small
// to scale.
func (c *Codes) Filter(q []float32, kth2 float64, s *Scratch) ([]uint32, bool) {
	if !(kth2 >= minKth2 && kth2 <= math.MaxFloat64) {
		return nil, false
	}
	np := pairs(c.dims)
	blocks := len(c.codes) / (np * vec.CodeBlockRows)
	if cap(s.tables) < np*32 {
		s.tables = make([]byte, np*32)
	}
	if cap(s.mask) < blocks {
		s.mask = make([]uint32, blocks)
	}
	tables, mask := s.tables[:np*32], s.mask[:blocks]
	// At scale limit/kth2 a row with d² ≤ kth2 sums to at most limit:
	// rejecting sums above it rejects only rows with d² > kth2.
	c.tables(q, limit/kth2, tables)
	vec.FilterCodes(c.codes, tables, np, limit, mask)
	if tail := c.rows % vec.CodeBlockRows; tail != 0 {
		mask[blocks-1] &= 1<<tail - 1
	}
	return mask, true
}

func abs(x int) int { return max(x, -x) }
