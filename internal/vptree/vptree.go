// Package vptree implements a vantage-point tree over float32 vectors.
//
// The tree answers k-nearest-neighbor queries under a node-visit budget
// (KNearestApprox; exact when the budget covers the whole tree), here
// under Euclidean distance. It is the candidate-search accelerator for BAG
// clustering: finding near cluster centroids without scanning all
// clusters (see DESIGN.md §2).
package vptree

import (
	"math/rand"
	"sort"

	"repro/internal/vec"
)

// Item is a payload stored in the tree: a point plus an opaque id the
// caller uses to map results back.
type Item struct {
	ID  int
	Vec vec.Vector
}

type node struct {
	item      Item
	threshold float64 // median distance from item to points in the subtree
	inside    *node   // points with dist <= threshold
	outside   *node   // points with dist > threshold
}

// Tree is an immutable vantage-point tree.
type Tree struct {
	root *node
	size int
}

// Build constructs a tree over the given items. The items slice is
// reordered in place during construction. Build is deterministic for a
// given seed.
func Build(items []Item, seed int64) *Tree {
	r := rand.New(rand.NewSource(seed))
	t := &Tree{size: len(items)}
	t.root = build(items, r)
	return t
}

func build(items []Item, r *rand.Rand) *node {
	if len(items) == 0 {
		return nil
	}
	// Pick a random vantage point and move it to the front.
	p := r.Intn(len(items))
	items[0], items[p] = items[p], items[0]
	n := &node{item: items[0]}
	rest := items[1:]
	if len(rest) == 0 {
		return n
	}
	// Partition around the median distance to the vantage point.
	dists := make([]float64, len(rest))
	for i, it := range rest {
		dists[i] = vec.Distance(n.item.Vec, it.Vec)
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(order) / 2
	n.threshold = dists[order[mid]]
	insideItems := make([]Item, 0, mid+1)
	outsideItems := make([]Item, 0, len(rest)-mid)
	for _, idx := range order {
		if dists[idx] <= n.threshold && len(insideItems) <= mid {
			insideItems = append(insideItems, rest[idx])
		} else {
			outsideItems = append(outsideItems, rest[idx])
		}
	}
	n.inside = build(insideItems, r)
	n.outside = build(outsideItems, r)
	return n
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

type byDist struct {
	items []Item
	dists []float64
}

func (b *byDist) Len() int           { return len(b.items) }
func (b *byDist) Less(i, j int) bool { return b.dists[i] < b.dists[j] }
func (b *byDist) Swap(i, j int) {
	b.items[i], b.items[j] = b.items[j], b.items[i]
	b.dists[i], b.dists[j] = b.dists[j], b.dists[i]
}
