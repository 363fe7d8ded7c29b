// Package srtree implements the SR-tree of Katayama & Satoh (SIGMOD 1997),
// the index the paper adapts to form uniformly sized chunks (§2).
//
// Each node stores both a bounding sphere (centered on the centroid of the
// descriptors below it) and a bounding rectangle; the effective region is
// their intersection, which gives tighter nearest-neighbor bounds in high
// dimensions than either alone.
//
// Build is the static bulk-load the paper uses ("we used the static build
// method, as it was much faster and guaranteed uniform leaf size"). It
// recursively median-splits on the highest-variance dimension, always
// cutting at a multiple of the leaf capacity, so every leaf except at most
// one holds exactly LeafCap descriptors. It uses every core: large
// subtrees are built concurrently, with output identical at any core
// count (DESIGN.md §2).
//
// Chunks extracts one chunk per leaf and discards the upper levels of the
// tree, exactly the paper's §2 adaptation.
package srtree

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/knn"
	"repro/internal/vec"
)

// DefaultFanout is the internal-node fanout used when none is specified.
const DefaultFanout = 16

// Tree is an SR-tree over a descriptor collection. The tree references
// descriptors by index into the collection; the collection must outlive
// the tree and must not be mutated.
type Tree struct {
	coll    *descriptor.Collection
	root    *node
	leafCap int
	fanout  int
	size    int
}

type node struct {
	leaf     bool
	children []*node // internal nodes
	entries  []int   // leaf nodes: descriptor indexes
	centroid vec.Vector
	radius   float64
	rect     vec.Bounds
	count    int
}

// Build bulk-loads an SR-tree over the descriptors at the given indexes
// (nil means the whole collection) with the given leaf capacity.
func Build(coll *descriptor.Collection, indexes []int, leafCap, fanout int) (*Tree, error) {
	if leafCap < 1 {
		return nil, fmt.Errorf("srtree: leaf capacity %d < 1", leafCap)
	}
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("srtree: fanout %d < 2", fanout)
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
	t := &Tree{coll: coll, leafCap: leafCap, fanout: fanout, size: len(indexes)}
	if len(indexes) == 0 {
		t.root = t.newLeaf(nil)
		return t, nil
	}
	leaves := t.bulkLeaves(indexes)
	t.root = t.buildUp(leaves)
	return t, nil
}

// parallelRows is the node size from which bulkLeaves builds the two
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

// bulkLeaves recursively median-splits idx on the highest-variance
// dimension, cutting at multiples of leafCap so leaf sizes stay uniform,
// and returns the leaves in split order.
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
// Halves of nodes of at least parallelRows rows are built concurrently;
// they write disjoint ranges, so the result does not depend on
// scheduling or on the core count.
func (t *Tree) bulkLeaves(idx []int) []*node {
	dims := t.coll.Dims()
	rows := make([]float32, len(idx)*dims)
	for i, j := range idx {
		copy(rows[i*dims:(i+1)*dims], t.coll.Vec(j))
	}
	leaves := make([]*node, (len(idx)+t.leafCap-1)/t.leafCap)
	t.split(leaves, idx, make([]int, len(idx)), rows, make([]float32, len(rows)), make([]keyPos, len(idx)))
	return leaves
}

// split fills leaves with the leaves over idx. rows holds idx's rows in
// idx order; spareIdx, spareRows and kp are scratch of the same lengths.
func (t *Tree) split(leaves []*node, idx, spareIdx []int, rows, spareRows []float32, kp []keyPos) {
	if len(idx) <= t.leafCap {
		leaves[0] = t.newLeaf(idx)
		return
	}
	dims := t.coll.Dims()
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
	cut := half * t.leafCap
	left := func() {
		t.split(leaves[:half], spareIdx[:cut], idx[:cut], spareRows[:cut*dims], rows[:cut*dims], kp[:cut])
	}
	right := func() {
		t.split(leaves[half:], spareIdx[cut:], idx[cut:], spareRows[cut*dims:], rows[cut*dims:], kp[cut:])
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

// buildUp assembles internal levels over the leaves, grouping fanout
// children at a time (children are spatially adjacent thanks to the
// recursive split order).
func (t *Tree) buildUp(level []*node) *node {
	for len(level) > 1 {
		next := make([]*node, 0, (len(level)+t.fanout-1)/t.fanout)
		for lo := 0; lo < len(level); lo += t.fanout {
			hi := lo + t.fanout
			if hi > len(level) {
				hi = len(level)
			}
			n := &node{children: append([]*node(nil), level[lo:hi]...)}
			t.refit(n)
			next = append(next, n)
		}
		level = next
	}
	return level[0]
}

func (t *Tree) newLeaf(entries []int) *node {
	n := &node{leaf: true, entries: append([]int(nil), entries...)}
	t.refit(n)
	return n
}

// refit recomputes count, centroid, bounding sphere and rectangle of n
// from its children or entries.
func (t *Tree) refit(n *node) {
	dims := t.coll.Dims()
	n.rect = vec.NewBounds(dims)
	acc := make([]float64, dims)
	n.count = 0
	if n.leaf {
		for _, i := range n.entries {
			v := t.coll.Vec(i)
			n.rect.Absorb(v)
			for d, x := range v {
				acc[d] += float64(x)
			}
		}
		n.count = len(n.entries)
	} else {
		for _, c := range n.children {
			n.rect.AbsorbBounds(c.rect)
			for d := range acc {
				acc[d] += float64(c.centroid[d]) * float64(c.count)
			}
			n.count += c.count
		}
	}
	if n.count == 0 {
		n.centroid = make(vec.Vector, dims)
		n.radius = 0
		return
	}
	n.centroid = make(vec.Vector, dims)
	inv := 1 / float64(n.count)
	for d, s := range acc {
		n.centroid[d] = float32(s * inv)
	}
	if n.leaf {
		var max2 float64
		for _, i := range n.entries {
			if d2 := vec.SquaredDistance(n.centroid, t.coll.Vec(i)); d2 > max2 {
				max2 = d2
			}
		}
		n.radius = math.Sqrt(max2)
	} else {
		// SR-tree parent sphere: bound the child spheres, additionally
		// clipped by the bounding rectangle's farthest corner.
		var max float64
		for _, c := range n.children {
			if d := vec.Distance(n.centroid, c.centroid) + c.radius; d > max {
				max = d
			}
		}
		if rc := t.rectFarthest(n.centroid, n.rect); rc < max {
			max = rc
		}
		n.radius = max
	}
}

// rectFarthest returns the distance from p to the farthest corner of r.
func (t *Tree) rectFarthest(p vec.Vector, r vec.Bounds) float64 {
	var sum float64
	for d, x := range p {
		lo := math.Abs(float64(x) - float64(r.Min[d]))
		hi := math.Abs(float64(r.Max[d]) - float64(x))
		m := math.Max(lo, hi)
		sum += m * m
	}
	return math.Sqrt(sum)
}

// Len returns the number of descriptors indexed.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// lowerBound2 returns the squared SR-tree lower bound on the distance
// from q to any descriptor under n: the larger of the rectangle MINDIST
// and the sphere bound (the region is the intersection of the two).
func (t *Tree) lowerBound2(q vec.Vector, n *node) float64 {
	rb2 := n.rect.SquaredMinDist(q)
	sb := vec.SphereLowerBound(q, n.centroid, n.radius)
	return math.Max(rb2, sb*sb)
}

// Neighbor is one k-NN result.
type Neighbor struct {
	Index int // position in the collection
	ID    descriptor.ID
	Dist  float64
}

// pqItem is a prioritized tree node for best-first search; bound2 is the
// squared lower bound.
type pqItem struct {
	n      *node
	bound2 float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].bound2 < p[j].bound2 }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// KNN returns the k nearest descriptors to q ordered by (increasing
// distance, ascending id), searched best-first with the SR-tree bounds
// (exact result). Internally everything runs on squared distances from
// the shared vec kernels — leaf scans abandon partial distances against
// the current k-th squared bound — with sqrt applied only when the result
// is assembled.
func (t *Tree) KNN(q vec.Vector, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	var frontier pq
	heap.Push(&frontier, pqItem{t.root, t.lowerBound2(q, t.root)})
	res := newResultSet(k)
	for frontier.Len() > 0 {
		it := heap.Pop(&frontier).(pqItem)
		if it.bound2 > res.worst2() {
			break
		}
		if it.n.leaf {
			for _, i := range it.n.entries {
				d2 := vec.PartialSquaredDistance(q, t.coll.Vec(i), res.worst2())
				res.offer(entry{index: i, id: t.coll.IDAt(i), d2: d2})
			}
			continue
		}
		for _, c := range it.n.children {
			if b2 := t.lowerBound2(q, c); b2 <= res.worst2() {
				heap.Push(&frontier, pqItem{c, b2})
			}
		}
	}
	return res.sorted()
}

// entry is one candidate in squared-distance form.
type entry struct {
	index int
	id    descriptor.ID
	d2    float64
}

// entryBeats orders entries by the canonical composite order shared with
// every other backend (knn.Less), carrying the extra Index payload the
// shared heap does not store.
func entryBeats(a, b entry) bool {
	return knn.Less(a.d2, a.id, b.d2, b.id)
}

// resultSet is a bounded max-heap of the k best candidates so far under
// the composite order.
type resultSet struct {
	k     int
	items []entry
}

func newResultSet(k int) *resultSet { return &resultSet{k: k} }

func (r *resultSet) worst2() float64 {
	if len(r.items) < r.k {
		return math.Inf(1)
	}
	return r.items[0].d2
}

func (r *resultSet) offer(n entry) {
	if len(r.items) < r.k {
		r.items = append(r.items, n)
		r.up(len(r.items) - 1)
		return
	}
	if !entryBeats(n, r.items[0]) {
		return
	}
	r.items[0] = n
	r.down(0)
}

func (r *resultSet) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entryBeats(r.items[p], r.items[i]) {
			break
		}
		r.items[p], r.items[i] = r.items[i], r.items[p]
		i = p
	}
}

func (r *resultSet) down(i int) {
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < len(r.items) && entryBeats(r.items[big], r.items[l]) {
			big = l
		}
		if rr < len(r.items) && entryBeats(r.items[big], r.items[rr]) {
			big = rr
		}
		if big == i {
			return
		}
		r.items[i], r.items[big] = r.items[big], r.items[i]
		i = big
	}
}

func (r *resultSet) sorted() []Neighbor {
	items := append([]entry(nil), r.items...)
	sort.Slice(items, func(a, b int) bool { return entryBeats(items[a], items[b]) })
	out := make([]Neighbor, len(items))
	for i, e := range items {
		out[i] = Neighbor{Index: e.index, ID: e.id, Dist: math.Sqrt(e.d2)}
	}
	return out
}

// Chunks extracts one cluster per leaf — the paper's adaptation that
// "generates chunks from the leaves, thus throwing away the upper levels
// of the tree" (§2). Centroid and minimum bounding radius are computed
// exactly per chunk.
func (t *Tree) Chunks() []*cluster.Cluster {
	var out []*cluster.Cluster
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if len(n.entries) > 0 {
				out = append(out, cluster.NewFromMembers(t.coll, n.entries))
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Validate checks the structural invariants of the whole tree: counts add
// up, every descriptor sits inside its ancestors' sphere and rectangle,
// and leaf sizes respect the capacity. Used by tests.
func (t *Tree) Validate() error {
	total := 0
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.leaf {
			if len(n.entries) > t.leafCap {
				return fmt.Errorf("srtree: leaf holds %d > cap %d", len(n.entries), t.leafCap)
			}
			if n.count != len(n.entries) {
				return fmt.Errorf("srtree: leaf count %d != entries %d", n.count, len(n.entries))
			}
			total += len(n.entries)
			for _, i := range n.entries {
				v := t.coll.Vec(i)
				if !n.rect.Contains(v) {
					return fmt.Errorf("srtree: entry %d outside leaf rect", i)
				}
				if vec.Distance(n.centroid, v) > n.radius+1e-6 {
					return fmt.Errorf("srtree: entry %d outside leaf sphere", i)
				}
			}
			return nil
		}
		sum := 0
		for _, c := range n.children {
			sum += c.count
			// Child region must be inside the parent rectangle; the parent
			// sphere must cover each child sphere (up to the rect clip).
			for d := range c.rect.Min {
				if c.rect.Min[d] < n.rect.Min[d]-1e-6 || c.rect.Max[d] > n.rect.Max[d]+1e-6 {
					return fmt.Errorf("srtree: child rect escapes parent in dim %d", d)
				}
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		if sum != n.count {
			return fmt.Errorf("srtree: internal count %d != children sum %d", n.count, sum)
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("srtree: %d descriptors reachable, want %d", total, t.size)
	}
	return nil
}
