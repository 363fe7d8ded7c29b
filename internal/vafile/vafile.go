// Package vafile implements the VA-File (Weber, Schek & Blott, VLDB 1998)
// and its approximate variants (Weber & Böhm, EDBT 2000), the related
// work the paper cites for "trading quality for time" (§6).
//
// A VA-File stores, besides the full vectors, a compact approximation of
// every descriptor: b bits per dimension addressing a grid cell. Search
// proceeds in two phases:
//
//  1. Scan all approximations, computing per-descriptor lower and upper
//     distance bounds from the cell geometry; keep the k-th smallest
//     upper bound and collect candidates whose lower bound beats it.
//  2. Visit candidates in ascending lower-bound order, computing exact
//     distances, stopping when the next lower bound exceeds the current
//     k-th exact distance. This yields the exact k-NN.
//
// The approximate variants: VisitBudget interrupts phase 2 after a fixed
// number of exact-vector visits (the approximate VA-File), and Epsilon
// shrinks the bounds (VA-BND), pruning more aggressively at the price of
// possible misses.
package vafile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/descriptor"
	"repro/internal/knn"
	"repro/internal/vec"
)

// Index is a VA-File over a collection.
type Index struct {
	coll  *descriptor.Collection
	bits  uint
	cells int
	// marks[d] holds the cells+1 partition boundaries of dimension d
	// (equi-populated, built from the data distribution).
	marks [][]float32
	// approx holds cells indexes, coll.Len() × dims, one byte each
	// (bits <= 8).
	approx []uint8
}

// Build constructs the VA-File with b bits per dimension (1..8).
// Partition marks are equi-populated per dimension, the standard choice
// for skewed data.
func Build(coll *descriptor.Collection, bits uint) (*Index, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("vafile: bits per dimension must be 1..8, got %d", bits)
	}
	if coll.Len() == 0 {
		return nil, fmt.Errorf("vafile: empty collection")
	}
	dims := coll.Dims()
	n := coll.Len()
	cells := 1 << bits
	ix := &Index{coll: coll, bits: bits, cells: cells}

	vals := make([]float32, n)
	for d := 0; d < dims; d++ {
		for i := 0; i < n; i++ {
			vals[i] = coll.Vec(i)[d]
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		marks := make([]float32, cells+1)
		for c := 0; c <= cells; c++ {
			pos := c * (n - 1) / cells
			marks[c] = vals[pos]
		}
		// Guarantee strictly covering outer marks so every value falls in
		// a cell.
		marks[0] = float32(math.Nextafter(float64(vals[0]), math.Inf(-1)))
		marks[cells] = float32(math.Nextafter(float64(vals[n-1]), math.Inf(1)))
		ix.marks = append(ix.marks, marks)
	}

	ix.approx = make([]uint8, n*dims)
	for i := 0; i < n; i++ {
		v := coll.Vec(i)
		for d := 0; d < dims; d++ {
			ix.approx[i*dims+d] = ix.cellOf(d, v[d])
		}
	}
	return ix, nil
}

// cellOf locates the cell of value x in dimension d.
func (ix *Index) cellOf(d int, x float32) uint8 {
	marks := ix.marks[d]
	// Find the first mark greater than x; the cell is one less.
	c := sort.Search(len(marks), func(i int) bool { return marks[i] > x }) - 1
	if c < 0 {
		c = 0
	}
	if c >= ix.cells {
		c = ix.cells - 1
	}
	return uint8(c)
}

// Options controls the approximate variants. The zero value runs the
// exact two-phase search.
type Options struct {
	// VisitBudget interrupts phase 2 after this many exact-vector visits
	// (0 = unlimited): the "approximate version of the VA-File" of §6.
	VisitBudget int
	// Epsilon shrinks both bounds toward the query (VA-BND): lower bounds
	// are increased and upper bounds decreased by Epsilon, pruning more
	// candidates at the risk of missing true neighbors.
	Epsilon float64
}

// Stats reports the work a query performed.
type Stats struct {
	Candidates int // descriptors surviving phase 1
	Visited    int // exact vectors computed in phase 2
}

// Search runs the two-phase VA-File k-NN search.
func (ix *Index) Search(q vec.Vector, k int, opts Options) ([]knn.Neighbor, Stats, error) {
	var st Stats
	if len(q) != ix.coll.Dims() {
		return nil, st, fmt.Errorf("vafile: query dims %d != %d", len(q), ix.coll.Dims())
	}
	if k <= 0 {
		return nil, st, nil
	}
	n := ix.coll.Len()
	dims := ix.coll.Dims()

	// Phase 1: bound scan. Track the k smallest upper bounds with a
	// max-heap; collect lower bounds for the candidate filter. All bounds
	// stay in squared form — the phase only compares them — so the exact
	// path computes no square roots at all; only the VA-BND epsilon
	// adjustment (defined in true-distance space) converts and back.
	lbs := make([]float64, n)
	ubHeap := make([]float64, 0, k)
	pushUB := func(u float64) {
		if len(ubHeap) < k {
			ubHeap = append(ubHeap, u)
			i := len(ubHeap) - 1
			for i > 0 {
				p := (i - 1) / 2
				if ubHeap[p] >= ubHeap[i] {
					break
				}
				ubHeap[p], ubHeap[i] = ubHeap[i], ubHeap[p]
				i = p
			}
			return
		}
		if u >= ubHeap[0] {
			return
		}
		ubHeap[0] = u
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(ubHeap) && ubHeap[l] > ubHeap[big] {
				big = l
			}
			if r < len(ubHeap) && ubHeap[r] > ubHeap[big] {
				big = r
			}
			if big == i {
				return
			}
			ubHeap[i], ubHeap[big] = ubHeap[big], ubHeap[i]
			i = big
		}
	}
	for i := 0; i < n; i++ {
		lb2, ub2 := ix.bounds2(q, i, dims)
		if opts.Epsilon > 0 {
			lb := math.Sqrt(lb2) + opts.Epsilon
			lb2 = lb * lb
			ub := math.Sqrt(ub2) - opts.Epsilon
			if ub < 0 {
				ub = 0
			}
			ub2 = ub * ub
		}
		lbs[i] = lb2
		pushUB(ub2)
	}
	kthUB2 := math.Inf(1)
	if len(ubHeap) == k {
		kthUB2 = ubHeap[0]
	}

	type cand struct {
		pos int
		lb2 float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		if lbs[i] <= kthUB2 {
			cands = append(cands, cand{i, lbs[i]})
		}
	}
	st.Candidates = len(cands)
	// Ties on the lower bound refine in collection order so Visited counts
	// are deterministic under a VisitBudget.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].lb2 != cands[b].lb2 {
			return cands[a].lb2 < cands[b].lb2
		}
		return cands[a].pos < cands[b].pos
	})

	// Phase 2: refine in ascending lower-bound order with the shared
	// squared-distance kernel and heap; stop on strict bound excess so an
	// equal-distance, smaller-ID neighbor is still admitted.
	heap := knn.NewHeap(k)
	for _, c := range cands {
		if c.lb2 > heap.Kth2() {
			break
		}
		if opts.VisitBudget > 0 && st.Visited >= opts.VisitBudget {
			break
		}
		d2 := vec.SquaredDistance(q, ix.coll.Vec(c.pos))
		heap.OfferSquared(ix.coll.IDAt(c.pos), d2)
		st.Visited++
	}
	return heap.Sorted(), st, nil
}

// bounds2 computes the squared lower and upper distance bounds between q
// and the cell of descriptor i.
func (ix *Index) bounds2(q vec.Vector, i, dims int) (lb2, ub2 float64) {
	var lo2, hi2 float64
	base := i * dims
	for d := 0; d < dims; d++ {
		c := int(ix.approx[base+d])
		cellLo := float64(ix.marks[d][c])
		cellHi := float64(ix.marks[d][c+1])
		x := float64(q[d])
		// Lower bound: distance from x to the cell interval.
		switch {
		case x < cellLo:
			diff := cellLo - x
			lo2 += diff * diff
		case x > cellHi:
			diff := x - cellHi
			lo2 += diff * diff
		}
		// Upper bound: distance to the farther cell edge.
		far := math.Max(math.Abs(x-cellLo), math.Abs(x-cellHi))
		hi2 += far * far
	}
	return lo2, hi2
}

// ApproximationBytes returns the size of the approximation file: the
// compression the VA-File trades against full vectors.
func (ix *Index) ApproximationBytes() int {
	// One byte per dimension in this implementation (bits <= 8).
	return len(ix.approx)
}
