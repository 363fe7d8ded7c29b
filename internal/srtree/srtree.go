// Package srtree forms chunks the way the paper adapts the SR-tree of
// Katayama & Satoh (SIGMOD 1997) (§2): by the static bulk load ("we used
// the static build method, as it was much faster and guaranteed uniform
// leaf size"), keeping only the leaves — it "generates chunks from the
// leaves, thus throwing away the upper levels of the tree". Those levels
// are therefore never built.
//
// The bulk load recursively median-splits on the highest-variance
// dimension, always cutting at a multiple of the leaf capacity, so every
// leaf except at most one holds exactly leafCap descriptors. It uses
// every core: large halves are split concurrently, with output identical
// at any core count (DESIGN.md §2).
package srtree

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/descriptor"
)

// Chunks bulk-loads the descriptors at the given indexes (nil means the
// whole collection) into leaves of leafCap and returns one chunk per
// leaf, in split order, with its exact centroid and minimum bounding
// radius.
func Chunks(coll *descriptor.Collection, indexes []int, leafCap int) ([]*cluster.Cluster, error) {
	if leafCap < 1 {
		return nil, fmt.Errorf("srtree: leaf capacity %d < 1", leafCap)
	}
	if indexes == nil {
		indexes = make([]int, coll.Len())
		for i := range indexes {
			indexes[i] = i
		}
	} else {
		indexes = append([]int(nil), indexes...)
	}
	if len(indexes) > math.MaxInt32 {
		return nil, fmt.Errorf("srtree: %d descriptors exceed the bulk load's limit of %d", len(indexes), math.MaxInt32)
	}
	if len(indexes) == 0 {
		return nil, nil
	}
	return bulk{coll: coll, leafCap: leafCap}.leaves(indexes), nil
}

// parallelRows is the node size from which the bulk load splits the two
// halves of a split on separate goroutines. Smaller nodes are not worth a
// goroutine; at the bench's 1M rows this runs the top four levels
// concurrently, which is enough to keep two cores busy.
const parallelRows = 1 << 16

// keyPos is one row's split key and its position in the node, the 8-byte
// record the split sorts instead of the rows themselves.
type keyPos struct {
	key float32
	pos int32
}

// bulk is one static bulk load's collection and leaf capacity.
type bulk struct {
	coll    *descriptor.Collection
	leafCap int
}

// leaves recursively median-splits idx on the highest-variance dimension,
// cutting at multiples of leafCap so leaf sizes stay uniform, and returns
// one chunk per leaf in split order.
//
// The rows are copied once, in idx order, into a block in which every
// node owns the contiguous range of its own rows, so the variance sums and
// the key gather read memory sequentially instead of fetching a random
// collection row per comparison. Each split sorts
// (key, position) pairs with sort.Slice and then permutes idx and the
// rows into a second block of the same size, which the children use as
// their input while the first becomes their scratch. sort.Slice on the
// pairs sees the same comparison results as sort.Slice on idx with a key
// lookup in less, so it makes the same swaps and leaves ties in the same
// order: the leaves are exactly those of the one-level-at-a-time sort.
// Halves of nodes of at least parallelRows rows are split concurrently;
// they write disjoint ranges, so the result does not depend on
// scheduling or on the core count.
func (b bulk) leaves(idx []int) []*cluster.Cluster {
	dims := b.coll.Dims()
	rows := make([]float32, len(idx)*dims)
	for i, j := range idx {
		copy(rows[i*dims:(i+1)*dims], b.coll.Vec(j))
	}
	leaves := make([]*cluster.Cluster, (len(idx)+b.leafCap-1)/b.leafCap)
	b.split(leaves, idx, make([]int, len(idx)), rows, make([]float32, len(rows)), make([]keyPos, len(idx)))
	return leaves
}

// split fills leaves with the chunks over idx. rows holds idx's rows in
// idx order; spareIdx, spareRows and kp are scratch of the same lengths.
func (b bulk) split(leaves []*cluster.Cluster, idx, spareIdx []int, rows, spareRows []float32, kp []keyPos) {
	if len(idx) <= b.leafCap {
		leaves[0] = cluster.NewFromMembers(b.coll, idx)
		return
	}
	dims := b.coll.Dims()
	dim := spreadDim(rows, dims)
	for i := range kp {
		kp[i] = keyPos{key: rows[i*dims+dim], pos: int32(i)}
	}
	sort.Slice(kp, func(a, b int) bool { return kp[a].key < kp[b].key })
	for i, p := range kp {
		from := int(p.pos) * dims
		spareIdx[i] = idx[p.pos]
		copy(spareRows[i*dims:(i+1)*dims], rows[from:from+dims])
	}
	// Cut as close to the middle as possible while keeping the left side a
	// multiple of leafCap, so only the rightmost leaf can be short.
	half := len(leaves) / 2
	cut := half * b.leafCap
	left := func() {
		b.split(leaves[:half], spareIdx[:cut], idx[:cut], spareRows[:cut*dims], rows[:cut*dims], kp[:cut])
	}
	right := func() {
		b.split(leaves[half:], spareIdx[cut:], idx[cut:], spareRows[cut*dims:], rows[cut*dims:], kp[cut:])
	}
	if len(idx) < parallelRows {
		left()
		right()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		left()
	}()
	right()
	wg.Wait()
}

// spreadDim returns the dimension with the largest variance over rows, a
// row-major block of dims-wide rows.
func spreadDim(rows []float32, dims int) int {
	sum := make([]float64, dims)
	sqs := make([]float64, dims)
	for lo := 0; lo < len(rows); lo += dims {
		for d, x := range rows[lo : lo+dims] {
			fx := float64(x)
			sum[d] += fx
			sqs[d] += fx * fx
		}
	}
	n := float64(len(rows) / dims)
	best, bestVar := 0, -1.0
	for d := 0; d < dims; d++ {
		mean := sum[d] / n
		variance := sqs[d]/n - mean*mean
		if variance > bestVar {
			best, bestVar = d, variance
		}
	}
	return best
}
