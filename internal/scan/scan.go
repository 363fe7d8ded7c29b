// Package scan implements the sequential-scan exact k-NN search the paper
// uses as the ground-truth oracle for its precision measurements (§5.4:
// "To measure precision, we first ran a sequential scan of the collection,
// and stored the identifiers of the returned descriptors").
package scan

import (
	"sync"

	"repro/internal/descriptor"
	"repro/internal/knn"
	"repro/internal/vec"
)

// rowBlock is the oracle's row block: 1,024 rows of 24-d float32 are
// 96 KiB, and their distances 8 KiB.
const rowBlock = 1024

// blocks recycles the distance buffers, so a scan allocates only its heap
// and result: ground-truth loops call KNN once per query.
var blocks = sync.Pool{New: func() any { return new([rowBlock]float64) }}

// KNN returns the exact k nearest descriptors of q in coll, ordered by
// (increasing distance, ascending id). It streams the collection in row
// blocks through the two calls every chunk scan makes (search.ScanChunk):
// vec.SquaredDistancesTo, then the shared squared-distance heap; sqrt is
// applied only at the reporting boundary inside Sorted.
func KNN(coll *descriptor.Collection, q vec.Vector, k int) []knn.Neighbor {
	n := coll.Len()
	if k <= 0 || n == 0 {
		return nil
	}
	h := knn.NewHeap(k)
	d2 := blocks.Get().(*[rowBlock]float64)
	defer blocks.Put(d2)
	for lo := 0; lo < n; lo += rowBlock {
		ids, rows := coll.Rows(lo, min(lo+rowBlock, n))
		vec.SquaredDistancesTo(q, rows, coll.Dims(), d2[:len(ids)])
		h.OfferSquaredAll(ids, d2[:len(ids)])
	}
	return h.Sorted()
}

// GroundTruth precomputes the exact top-k id sets for a batch of queries.
type GroundTruth struct {
	K   int
	IDs [][]descriptor.ID // per query, ordered by increasing distance
}

// Compute builds the ground truth for all queries.
func Compute(coll *descriptor.Collection, queries []vec.Vector, k int) *GroundTruth {
	gt := &GroundTruth{K: k, IDs: make([][]descriptor.ID, len(queries))}
	for qi, q := range queries {
		nn := KNN(coll, q, k)
		ids := make([]descriptor.ID, len(nn))
		for i, n := range nn {
			ids[i] = n.ID
		}
		gt.IDs[qi] = ids
	}
	return gt
}

// Found counts how many of query qi's true top-k appear among the given
// neighbors (the paper's "neighbors found" axis).
func (g *GroundTruth) Found(qi int, neighbors []knn.Neighbor) int {
	truth := g.IDs[qi]
	set := make(map[descriptor.ID]struct{}, len(truth))
	for _, id := range truth {
		set[id] = struct{}{}
	}
	n := 0
	for _, nb := range neighbors {
		if _, ok := set[nb.ID]; ok {
			n++
		}
	}
	return n
}
