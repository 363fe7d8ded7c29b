// Package knn provides the shared k-nearest-neighbor result type and the
// bounded max-heap used by every search implementation in this repository
// (chunk search, sequential scan, VA-file).
//
// Following the repo-wide convention (see package vec), the heap operates
// on *squared* distances: candidates enter through OfferSquared (or, a
// block of kernel output at a time, OfferSquaredAll), pruning
// bounds come out of Kth2, and math.Sqrt is applied only in Sorted /
// SortedInto / AppendAll at the reporting boundary. Equal-distance
// neighbors are ordered deterministically by ascending ID, both in the
// retained set (an equal-distance candidate with a smaller ID evicts the
// current worst) and in the sorted output, so independently implemented
// backends produce byte-identical results, tie order included.
package knn

import (
	"math"
	"slices"

	"repro/internal/descriptor"
)

// Neighbor is one k-NN result entry. Dist is a true Euclidean distance
// (sqrt applied): the reporting-boundary form.
type Neighbor struct {
	ID   descriptor.ID
	Dist float64
}

// item is the internal squared-distance form.
type item struct {
	id descriptor.ID
	d2 float64
}

// Less is the canonical (squared distance, ascending id) composite order
// every backend shares for deterministic tie-breaking. Any search
// structure maintaining its own candidate set, and any test checking an
// order, must order through this function rather than re-implementing
// the rule, so a future change cannot desynchronize backends.
func Less(d2a float64, ida descriptor.ID, d2b float64, idb descriptor.ID) bool {
	return d2a < d2b || (d2a == d2b && ida < idb)
}

// beats reports whether a is strictly better than b under Less.
func beats(a, b item) bool {
	return Less(a.d2, a.id, b.d2, b.id)
}

// Heap is a bounded max-heap keeping the k best (squared distance, id)
// entries offered so far. The zero value is unusable; construct with
// NewHeap or recycle one with Reset.
type Heap struct {
	k     int
	items []item
}

// NewHeap returns a heap retaining the k best entries.
func NewHeap(k int) *Heap { return &Heap{k: k} }

// Reset empties the heap and sets a new capacity bound, retaining the
// backing storage so steady-state reuse does not allocate.
func (h *Heap) Reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

// Len returns the number of entries currently held.
func (h *Heap) Len() int { return len(h.items) }

// K returns the retention bound.
func (h *Heap) K() int { return h.k }

// Kth2 returns the current k-th best squared distance, or +Inf while the
// heap holds fewer than k entries. This is the pruning bound used by stop
// rules and the VA-File's refine step.
func (h *Heap) Kth2() float64 {
	if len(h.items) < h.k {
		return math.Inf(1)
	}
	return h.items[0].d2
}

// Kth returns the current k-th best distance (sqrt applied), or +Inf
// while the heap holds fewer than k entries. Reporting-boundary form of
// Kth2 for callers comparing against true-distance bounds.
func (h *Heap) Kth() float64 {
	if len(h.items) < h.k {
		return math.Inf(1)
	}
	return math.Sqrt(h.items[0].d2)
}

// OfferSquared inserts the neighbor if it improves the current top-k
// under the (squared distance, ascending id) order.
func (h *Heap) OfferSquared(id descriptor.ID, d2 float64) {
	it := item{id: id, d2: d2}
	if len(h.items) < h.k {
		h.push(it)
	} else if h.k > 0 && beats(it, h.items[0]) {
		h.replaceWorst(it)
	}
}

// OfferSquaredAll offers (ids[i], d2s[i]) for every i in order, with
// exactly the outcome of that sequence of OfferSquared calls: the scan
// loops' entry point. Once the heap is full it rejects d2 > Kth2 inline —
// in a ranked search that is all but a percent or two of the rows — and
// only a candidate with d2 <= Kth2 reaches the tie rule (equality still
// goes through beats) and the sift, after which the bound is refreshed.
func (h *Heap) OfferSquaredAll(ids []descriptor.ID, d2s []float64) {
	ids = ids[:len(d2s)]
	i := 0
	for ; i < len(d2s) && len(h.items) < h.k; i++ {
		h.push(item{id: ids[i], d2: d2s[i]})
	}
	if h.k <= 0 || i == len(d2s) {
		return
	}
	kth2 := h.items[0].d2
	for ; i < len(d2s); i++ {
		if d2 := d2s[i]; d2 <= kth2 {
			if it := (item{id: ids[i], d2: d2}); beats(it, h.items[0]) {
				h.replaceWorst(it)
				kth2 = h.items[0].d2
			}
		}
	}
}

// push adds it to a heap holding fewer than k entries.
func (h *Heap) push(it item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !beats(h.items[p], h.items[i]) {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

// replaceWorst evicts the root — the current k-th entry — for it, which
// the caller has checked beats it.
func (h *Heap) replaceWorst(it item) {
	h.items[0] = it
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.items) && beats(h.items[big], h.items[l]) {
			big = l
		}
		if r < len(h.items) && beats(h.items[big], h.items[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

// AppendAll appends the current entries (unordered, sqrt applied) to dst
// and returns it.
func (h *Heap) AppendAll(dst []Neighbor) []Neighbor {
	for _, it := range h.items {
		dst = append(dst, Neighbor{ID: it.id, Dist: math.Sqrt(it.d2)})
	}
	return dst
}

// Sorted returns the entries ordered by (increasing squared distance,
// ascending id), with sqrt applied at this reporting boundary. Like
// SortedInto, it reorders the heap's internal storage: afterwards the
// heap is only good for Reset.
func (h *Heap) Sorted() []Neighbor {
	return h.SortedInto(make([]Neighbor, 0, len(h.items)))
}

// SortedInto appends the sorted entries to dst and returns it; passing a
// buffer with spare capacity makes the call allocation-free. The sort key
// is the retained (squared distance, id) pair — not the sqrt'd Dist —
// so the order matches every other backend bit for bit even when two
// distinct squared distances round to the same square root.
//
// SortedInto sorts the heap's internal storage in place, destroying the
// heap invariant: call it only when the query is finished, then Reset
// before reuse.
func (h *Heap) SortedInto(dst []Neighbor) []Neighbor {
	slices.SortFunc(h.items, func(a, b item) int {
		if beats(a, b) {
			return -1
		}
		if beats(b, a) {
			return 1
		}
		return 0
	})
	return h.AppendAll(dst)
}
