// Package search implements the paper's approximate search algorithm over
// a chunk index (§4.3):
//
//  1. Compute the distance from the query descriptor to the centroid of
//     every chunk and rank chunks by increasing distance.
//  2. Read chunks in rank order; scan every descriptor of each chunk,
//     updating the current k-NN set.
//  3. After each chunk, apply the stop rule: stop after a fixed number of
//     chunks, stop after a time threshold, or run to completion — the
//     exact rule that stops once k neighbors are known and no remaining
//     chunk's lower bound (centroid distance minus radius, the reason
//     radii are stored in the index) can beat the current k-th neighbor.
//
// The scan phase follows the repo-wide squared-distance convention: every
// chunk is scanned by the vec batch kernel over its contiguous Data.Vecs
// backing array, on every kernel backend.
//
// Step 3 and all of its bookkeeping — simulated charging, the stop rule,
// the exactness certificate — exist once, as Walk. Its one driver is the
// chunk-major engine in the batchexec subpackage, and a point query is a
// batch of one there, so a query's result never depends on which other
// queries shared its run: the engine merely reorders which chunk is
// decoded when. A store whose chunks live on several simulated machines
// (the shard router's) is still one walk: each chunk is billed to its
// machine, and the stop rule is applied per machine or, under the global
// budget discipline, once over the walk's totals. The primitives
// RankChunks (step 1), SuffixBounds (the certificate's bounds) and
// ScanChunk (step 2's scan) are exported for the engine's scans
// and for benchmarks that time the stages separately.
//
// Elapsed time is tracked on the simdisk cost model so the paper's 2005
// wall-clock magnitudes are reproduced deterministically; real wall time
// is measured as well.
package search

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/knn"
	"repro/internal/simdisk"
	"repro/internal/vec"
)

// Neighbor is one result entry.
type Neighbor = knn.Neighbor

// costModel prices every walk: the calibrated 2005 machine (§5.5) the
// paper's timings were measured on.
var costModel = simdisk.Default2005()

// StopRule decides whether the search may halt after a chunk has been
// processed.
type StopRule interface {
	// Done is consulted after each processed chunk. chunksRead is the
	// number of chunks processed so far, elapsed the simulated time,
	// kthDist the current k-th neighbor distance (+Inf while fewer than k
	// found) and remainingBound the lowest possible distance any unread
	// chunk could contain (+Inf when no chunks remain).
	Done(chunksRead int, elapsed time.Duration, kthDist, remainingBound float64) bool
	fmt.Stringer
}

// ChunkBudget stops after reading a fixed number of chunks — the paper's
// "simple and natural stop rule is to process only the c nearest chunks".
type ChunkBudget int

// Done implements StopRule.
func (b ChunkBudget) Done(chunksRead int, _ time.Duration, _, _ float64) bool {
	return chunksRead >= int(b)
}

func (b ChunkBudget) String() string { return fmt.Sprintf("chunks<=%d", int(b)) }

// TimeBudget stops once the simulated elapsed time passes the threshold —
// the rule the paper's §5.7 concludes is the more natural one.
type TimeBudget time.Duration

// Done implements StopRule.
func (t TimeBudget) Done(_ int, elapsed time.Duration, _, _ float64) bool {
	return elapsed >= time.Duration(t)
}

func (t TimeBudget) String() string { return fmt.Sprintf("time<=%v", time.Duration(t)) }

// ToCompletion runs the exact search: it stops only when the k-NN set is
// full and no unread chunk can contain anything closer than the current
// k-th neighbor.
type ToCompletion struct{}

// Done implements StopRule.
func (ToCompletion) Done(_ int, _ time.Duration, kthDist, remainingBound float64) bool {
	return remainingBound > kthDist
}

func (ToCompletion) String() string { return "completion" }

// DefaultK is the k a search runs with when none is given: the paper's
// quality metric is precision within the top 30.
const DefaultK = 30

// Event reports the search state right after one chunk was processed.
type Event struct {
	Ordinal    int           // 1-based rank of the chunk in the processing order
	ChunkIndex int           // position of the chunk in the store
	ChunkCount int           // descriptors in the chunk
	Elapsed    time.Duration // simulated elapsed time including this chunk
	// Neighbors is the current k-NN set (unordered); the slice is reused
	// between events and must not be retained.
	Neighbors []Neighbor
}

// Result is the outcome of one query, and the facade's repro.Result.
type Result struct {
	Neighbors  []Neighbor    // ordered by (increasing distance, ascending id)
	ChunksRead int           // chunks processed
	Simulated  time.Duration // simulated elapsed time (index read + chunks)
	IndexRead  time.Duration // simulated cost of reading + ranking the index
	Wall       time.Duration // real time from the run's start to this query's retirement
	Exact      bool          // true if the exact stop condition held at the end
	// ChunksSkipped counts ranked chunks the store reported unavailable
	// (chunkfile.ErrUnavailable — no live replica); the search completed
	// without their descriptors.
	ChunksSkipped int
	// Degraded reports that at least one chunk was skipped as unavailable:
	// the result is the best answer over the reachable data, Exact is
	// necessarily false, and recall may be below a healthy run's.
	Degraded bool
	// PerMachine is the per-machine breakdown of a walk over a store whose
	// chunks live on several simulated machines (chunkfile.MachineLayout —
	// the shard router's store): the chunks each machine was billed and
	// its simulated clock. Empty on plain stores; the slice is reused
	// across calls on a recycled Result.
	PerMachine []MachineCost
}

// MachineCost is one simulated machine's share of a walk: the chunks it
// was billed (read, and skipped as unavailable) and its clock — its index
// read plus those charges, in the walk's charge order.
type MachineCost struct {
	ChunksRead, ChunksSkipped int
	Elapsed                   time.Duration
}

// RankedChunk is one chunk in a query's processing order.
type RankedChunk struct {
	Idx   int     // position in the store
	D2    float64 // squared centroid distance (ranking key)
	Bound float64 // true-distance lower bound: max(0, dist - radius)
}

// compareRanked is the total order of a ranking: squared centroid
// distance, ties by ascending chunk index. Being total, it makes any
// sorted prefix a function of the data alone, not of the algorithm that
// selected it.
func compareRanked(a, b RankedChunk) int {
	switch {
	case a.D2 < b.D2:
		return -1
	case a.D2 > b.D2:
		return 1
	}
	return a.Idx - b.Idx
}

// appendRanked appends one RankedChunk per meta, in store order, from the
// squared centroid distances d2: one sqrt per chunk converts to the
// true-distance lower bound the stop rules consume.
func appendRanked(ranked []RankedChunk, metas []chunkfile.Meta, d2 []float64) []RankedChunk {
	for i, v := range d2[:len(metas)] {
		lb := math.Sqrt(v) - metas[i].Radius
		if lb < 0 {
			lb = 0
		}
		ranked = append(ranked, RankedChunk{Idx: i, D2: v, Bound: lb})
	}
	return ranked
}

// RankChunks appends one RankedChunk per store chunk to ranked (reusing
// its capacity; pass ranked[:0] to recycle a buffer) and sorts the result
// by (squared centroid distance, ascending chunk index) — step 1 of the
// paper's algorithm, in full. Distances come from the matrix kernel: one
// vec.SquaredDistancesTo call when the metas alias a store's centroid
// matrix (any Store.Meta()), one call per centroid otherwise. A Walk
// orders only the prefix it reads; this is the whole order, for callers
// that want every rank.
func RankChunks(q vec.Vector, metas []chunkfile.Meta, ranked []RankedChunk) []RankedChunk {
	d2 := make([]float64, len(metas))
	if mat := chunkfile.CentroidMatrix(metas); mat != nil {
		vec.SquaredDistancesTo(q, mat, len(q), d2)
	} else {
		for i := range metas {
			vec.SquaredDistancesTo(q, metas[i].Centroid, len(q), d2[i:i+1])
		}
	}
	ranked = appendRanked(ranked, metas, d2)
	slices.SortFunc(ranked, compareRanked)
	return ranked
}

// SuffixBounds fills suffix (reusing its capacity; pass suffix[:0]) with
// the suffix minima over the ranked lower bounds: suffix[i] is the lowest
// true distance any chunk in ranked[i:] could contain, +Inf past the end.
// suffix[i+1] is the remainingBound consulted by the stop rule after
// processing ranked[i], and the exactness certificate.
func SuffixBounds(ranked []RankedChunk, suffix []float64) []float64 {
	suffix = sized(suffix, len(ranked)+1)
	suffix[len(ranked)] = math.Inf(1)
	for i := len(ranked) - 1; i >= 0; i-- {
		suffix[i] = math.Min(suffix[i+1], ranked[i].Bound)
	}
	return suffix
}

// selectSorted reorders r so that r[:k] holds its k smallest entries under
// compareRanked, sorted, and r[k:] the rest in no particular order:
// heap-select (a max-heap over r[:k], every later entry that beats the
// root swapped in), then a sort of the prefix. O(len(r)·log k), in place.
// In the same pass it lowers rest[g] to the bound of every entry left in
// r[k:], g being the entry's budget group in group (0 when group is nil):
// an entry at i >= k is final once the pass has moved past i. k must be
// positive unless r is empty.
func selectSorted(r []RankedChunk, k int, group []int32, rest []float64) {
	if k >= len(r) {
		slices.SortFunc(r, compareRanked)
		return
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(r[:k], i)
	}
	for i := k; i < len(r); i++ {
		if compareRanked(r[i], r[0]) < 0 {
			r[i], r[0] = r[0], r[i]
			siftDown(r[:k], 0)
		}
		g := 0
		if group != nil {
			g = int(group[r[i].Idx])
		}
		if b := r[i].Bound; b < rest[g] {
			rest[g] = b
		}
	}
	slices.SortFunc(r[:k], compareRanked)
}

// siftDown restores the max-heap property of h below position i.
func siftDown(h []RankedChunk, i int) {
	for {
		big, l := i, 2*i+1
		if l < len(h) && compareRanked(h[l], h[big]) > 0 {
			big = l
		}
		if l+1 < len(h) && compareRanked(h[l+1], h[big]) > 0 {
			big = l + 1
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Plan is the per-run configuration every Walk of one run shares: the
// store's chunk index, the resolved options, and the store's
// simulated-machine layout with each machine's index-read time. The batch
// engine resolves one per run.
type Plan struct {
	metas     []chunkfile.Meta
	centroids []float32 // the store's row-major centroid matrix
	dims      int
	k         int
	first     int // chunks a walk orders up front
	stop      StopRule
	overlap   bool
	trace     func(query int, ev Event)
	// owner maps every chunk to the machine its charges bill
	// (chunkfile.MachineLayout; nil = one machine). inits holds each
	// machine's index-read time for its own chunk count — the origin of
	// every walk's pipeline on that machine — and indexRead their max: the
	// machines rank concurrently.
	owner     []int32
	counts    []int
	inits     []time.Duration
	indexRead time.Duration
	// counted is the owner slice counts was counted from. A store's layout
	// is fixed (chunkfile.MachineLayout), so a plan Reset again over the
	// same slice keeps its counts: a run's Reset, and admission's, costs
	// O(machines), not O(chunks).
	counted []int32
	// group maps every chunk to the budget group whose stop rule it spends:
	// its owner under the per-machine discipline, nil (one group) under the
	// global one or on a plain store. groups holds each group's chunk
	// count, live the groups owning a chunk.
	group  []int32
	groups []int
	live   int
	// least is MaxReads' scratch under a time budget.
	least []leastCharge
}

// groupOf returns the budget group of store chunk ci.
func (p *Plan) groupOf(ci int) int {
	if p.group == nil {
		return 0
	}
	return int(p.group[ci])
}

// Reset resolves the plan for one run over the store: k <= 0 means
// DefaultK, a nil stop rule ToCompletion.
// global spends the stop rule's budget once over a multi-machine layout
// instead of once per machine (see Walk). trace, when non-nil, receives
// one Event per charged chunk with the walk's Query index. A store
// reporting a malformed machine layout is rejected.
func (p *Plan) Reset(store chunkfile.Store, k int, stop StopRule, global, overlap bool, trace func(int, Event)) error {
	if k <= 0 {
		k = DefaultK
	}
	if stop == nil {
		stop = ToCompletion{}
	}
	p.metas, p.k, p.stop, p.overlap, p.trace = store.Meta(), k, stop, overlap, trace
	p.centroids, p.dims = store.Centroids(), store.Dims()
	if len(p.centroids) != len(p.metas)*p.dims {
		return fmt.Errorf("search: store has %d chunks of %d dims but a centroid matrix of %d floats", len(p.metas), p.dims, len(p.centroids))
	}
	p.owner = nil
	machines := 1
	if ml, ok := store.(chunkfile.MachineLayout); ok {
		p.owner, machines = ml.Layout()
		if len(p.owner) != len(p.metas) || machines < 1 {
			return fmt.Errorf("search: store layout maps %d chunks onto %d machines, store has %d chunks", len(p.owner), machines, len(p.metas))
		}
	}
	if len(p.owner) == 0 || len(p.counted) != len(p.owner) || &p.counted[0] != &p.owner[0] || len(p.counts) != machines {
		p.counted = nil
		p.counts = sized(p.counts, machines)
		clear(p.counts)
		if p.owner == nil {
			p.counts[0] = len(p.metas)
		}
		for ci, m := range p.owner {
			if m < 0 || int(m) >= machines {
				return fmt.Errorf("search: store layout maps chunk %d to machine %d outside [0,%d)", ci, m, machines)
			}
			p.counts[m]++
		}
		p.counted = p.owner
	}
	p.inits = sized(p.inits, machines)
	p.indexRead = 0
	entrySize := chunkfile.EntrySize(p.dims)
	for m, c := range p.counts {
		p.inits[m] = costModel.IndexReadTime(c, entrySize)
		p.indexRead = max(p.indexRead, p.inits[m])
	}
	p.group, p.groups = p.owner, append(p.groups[:0], p.counts...)
	if global {
		p.group, p.groups = nil, append(p.groups[:0], len(p.metas))
	}
	p.live = 0
	for _, c := range p.groups {
		if c > 0 {
			p.live++
		}
	}
	// A chunk budget names the prefix outright — per group, each spending
	// its own (a walk looks past it only when it skips unavailable chunks or
	// passes over stopped groups); any other rule starts small. Clamped to
	// the store first, so no budget overflows the product.
	p.first = initialPrefix
	if b, ok := stop.(ChunkBudget); ok {
		p.first = max(int(b), 1)
	}
	p.first = min(min(p.first, len(p.metas))*p.live, len(p.metas))
	return nil
}

// MaxReads returns the most chunks one walk under the plan can charge:
// the ChunksRead no query of the run can exceed, whatever its rank order,
// stalls or unavailable chunks. A budget group's rule is consulted only
// after a charge, so it may overshoot by the chunk that trips it.
//   - A chunk budget c reads at most min(c, |g|) chunks of each group g,
//     exactly that when no chunk is unavailable.
//   - A time budget: a machine whose clock is still under the budget
//     after n charges has fit n of its chunks between its index read and
//     the budget, at least as many as its n cheapest would cost — read
//     plus scan, or the read alone with overlap, since stalls only add.
//     Each machine group reads those plus the one that crosses. The
//     global group, whose clock is the max over the machines, stops on
//     its first charge once the index read alone passes the budget, and
//     otherwise reads what every machine fits plus the one crossing.
//   - Run to completion may read every chunk.
//
// A chunk budget costs O(groups); a time budget O(chunks·log chunks).
func (p *Plan) MaxReads() int {
	switch stop := p.stop.(type) {
	case ChunkBudget:
		n := 0
		for _, size := range p.groups {
			n += min(int(stop), size)
		}
		return n
	case TimeBudget:
		return p.timedReads(time.Duration(stop))
	}
	return len(p.metas)
}

// timedReads is MaxReads under a time budget.
func (p *Plan) timedReads(budget time.Duration) int {
	if p.group == nil && p.indexRead >= budget {
		return min(1, len(p.metas))
	}
	// Every chunk's least charge, each machine's cheapest first.
	p.least = p.least[:0]
	for ci := range p.metas {
		c := leastCharge{cost: costModel.ReadTime(p.metas[ci].Bytes)}
		if !p.overlap {
			c.cost += costModel.CPUTime(p.metas[ci].Count)
		}
		if p.owner != nil {
			c.machine = p.owner[ci]
		}
		p.least = append(p.least, c)
	}
	slices.SortFunc(p.least, func(a, b leastCharge) int {
		return cmp.Or(cmp.Compare(a.machine, b.machine), cmp.Compare(a.cost, b.cost))
	})
	reads := 0
	for at := 0; at < len(p.least); {
		m := p.least[at].machine
		fit, clock, size := 0, p.inits[m], p.counts[m]
		for _, c := range p.least[at : at+size] {
			if clock += c.cost; clock < budget {
				fit++
			}
		}
		at += size
		if p.group != nil {
			fit = min(fit+1, size) // this machine's crossing chunk
		}
		reads += fit
	}
	if p.group == nil {
		reads = min(reads+1, len(p.metas)) // the walk's one crossing chunk
	}
	return reads
}

// leastCharge is the least a machine's clock advances for one of its
// chunks: its read, plus its scan unless the pipeline overlaps them.
type leastCharge struct {
	machine int32
	cost    time.Duration
}

// Release drops the plan's references into caller and store memory so a
// pooled plan retains none of it but the layout it counted.
func (p *Plan) Release() {
	p.metas, p.centroids, p.stop, p.trace, p.owner, p.group = nil, nil, nil, nil, nil, nil
}

// sized returns s with length n, reusing its capacity; contents are
// unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Walk is one query's progress through its ranked chunk list, and the
// only implementation of the per-(query, chunk) step of the paper's
// algorithm: bill the chunk (and any read stall) to its machine's
// simulated pipeline, trace, consult the stop rule, and settle the
// exactness certificate. Its driver, the batchexec engine, reads each
// chunk once for all the walks that want it and does exactly this between
// steps: read the chunk Next names, scan it into Heap, then call Charge
// (or Skip when no replica is live). The simulated clocks depend only on
// the order of a walk's own steps, never on when the driver takes them.
//
// The stop rule is consulted per budget group: a group is a set of chunks
// spending one budget, and it consults the rule only after charging one of
// its own chunks, with its chunks read, its clock, the walk's k-th
// distance and the lowest bound over its unread chunks. Once a group's
// rule fires the walk passes over its remaining chunks — not read, charged
// or counted — and it ends when every group has stopped or run out of
// chunks. Under the per-machine discipline (the default over a
// multi-machine layout) each machine is a group, with its own chunks read
// and its own clock. Under the global discipline, and on a plain store,
// the whole store is one group, whose clock is the max over the machines'.
// Either way Exact is the certificate over what was left unread: every
// unread chunk's bound above the final k-th distance.
type Walk struct {
	plan  *Plan
	Query int      // reported to the plan's trace hook
	Heap  knn.Heap // the current k-NN set; drivers scan chunks into it
	// ranked holds every chunk of the store; ranked[:sorted] is the head of
	// the rank order (compareRanked), the rest everything ranked later, not
	// yet ordered. d2 is the kernel's output the keys are taken from.
	ranked []RankedChunk
	sorted int
	d2     []float64
	// after[i], for pos <= i < sorted, is the lowest bound over the chunks
	// of ranked[i]'s budget group ranked after i. rest is order's scratch:
	// each group's lowest bound over the unordered remainder.
	after, rest []float64
	pos         int // rank position of the next chunk
	// pipes is one simulated machine per machine of the plan's layout,
	// billed by chunk ownership: Simulated reads their max.
	pipes        []simdisk.Pipeline
	reads, skips []int // per layout machine
	// left[g] is how many chunks group g may still read (0 once its rule
	// fired), live the groups with left > 0, unread the lowest bound over
	// the chunks stopped groups left.
	left   []int
	live   int
	unread float64
	events []Neighbor
}

// Reset starts the walk of q under the plan: step 1 of the paper's
// algorithm (the chunk ranking, plus the per-group bounds the stop rule
// and the certificate consume), fresh pipelines at each machine's index-read
// time, and res seeded — its Neighbors and PerMachine buffers are kept.
// It reports whether there is any chunk to walk.
func (w *Walk) Reset(p *Plan, q vec.Vector, res *Result) bool {
	w.plan = p
	w.d2 = sized(w.d2, len(p.metas))
	vec.SquaredDistancesTo(q, p.centroids, p.dims, w.d2)
	w.ranked = appendRanked(w.ranked[:0], p.metas, w.d2)
	w.after, w.rest = sized(w.after, len(w.ranked)), sized(w.rest, len(p.groups))
	w.left = append(w.left[:0], p.groups...)
	w.live, w.unread = p.live, math.Inf(1)
	w.sorted = 0
	w.order(p.first)
	w.Heap.Reset(p.k)
	w.pos = 0
	w.pipes = sized(w.pipes, len(p.inits))
	for m := range w.pipes {
		w.pipes[m].Reset(costModel, p.overlap, p.inits[m])
	}
	w.reads, w.skips = sized(w.reads, len(p.inits)), sized(w.skips, len(p.inits))
	clear(w.reads)
	clear(w.skips)
	*res = Result{
		Neighbors:  res.Neighbors[:0],
		PerMachine: res.PerMachine[:0],
		IndexRead:  p.indexRead,
		Simulated:  p.indexRead,
		Exact:      len(w.ranked) == 0, // zero chunks: trivially complete
	}
	return len(w.ranked) > 0
}

// initialPrefix is how many chunks a walk without a chunk budget orders
// up front; order doubles the prefix every time the walk outruns it.
const initialPrefix = 8

// order extends the sorted prefix by up to n more chunks, selected from
// the unordered remainder — every entry of which ranks after the whole
// prefix, so the prefix stays the head of the full order — and lays the
// per-group bounds after over the new stretch (the cursor never returns to
// the old one). The remainder's lowest bounds are order-free, which keeps
// the stop rule's remainingBound exact without sorting what the walk never
// reads.
func (w *Walk) order(n int) {
	p := w.plan
	from := w.sorted
	w.sorted = min(from+n, len(w.ranked))
	for g := range w.rest {
		w.rest[g] = math.Inf(1)
	}
	selectSorted(w.ranked[from:], w.sorted-from, p.group, w.rest)
	// after[i] over the new stretch, from its end back to from, each
	// group's running minimum seeded with its lowest remainder bound.
	for i := w.sorted - 1; i >= from; i-- {
		g := p.groupOf(w.ranked[i].Idx)
		w.after[i] = w.rest[g]
		w.rest[g] = math.Min(w.rest[g], w.ranked[i].Bound)
	}
}

// Next returns the store index of the chunk the walk wants next.
func (w *Walk) Next() int { return w.ranked[w.pos].Idx }

// stall bills a read's failed attempts and stall (chunkfile.Data's
// FailedReads and Stall) for the chunk at the cursor to the machine owning
// it and returns that machine. Each failed attempt costs the chunk's read
// time.
func (w *Walk) stall(failed int, d time.Duration) (machine int) {
	ci := w.ranked[w.pos].Idx
	if w.plan.owner != nil {
		machine = int(w.plan.owner[ci])
	}
	d += time.Duration(failed) * costModel.ReadTime(w.plan.metas[ci].Bytes)
	w.pipes[machine].Stall(d)
	return machine
}

// Skip steps past the chunk Next named because no live replica serves it
// (chunkfile.ErrUnavailable): the read's failed attempts and stall are
// billed, the result degrades, and no budget is spent — the stop rule is
// not consulted, so a budget buys reachable chunks only. It reports
// whether the walk is over.
func (w *Walk) Skip(res *Result, failed int, stall time.Duration) (done bool) {
	machine := w.stall(failed, stall)
	res.Simulated = max(res.Simulated, w.pipes[machine].Elapsed())
	res.ChunksSkipped++
	res.Degraded = true
	w.skips[machine]++
	return w.step(res, machine, false)
}

// Charge steps past the chunk Next named after the driver scanned it into
// Heap: failed and stall are the read's Data.FailedReads and Data.Stall.
// The chunk is billed to its owning machine's pipeline, the query's
// Simulated becomes the max over its machines, which run in parallel, and
// the chunk's budget group consults the stop rule. It reports whether the
// walk is over, with res.Exact settled.
func (w *Walk) Charge(res *Result, failed int, stall time.Duration) (done bool) {
	p := w.plan
	rc := &w.ranked[w.pos]
	m := &p.metas[rc.Idx]
	machine := w.stall(failed, stall)
	elapsed := max(res.Simulated, w.pipes[machine].Chunk(m.Bytes, m.Count))
	res.ChunksRead++
	res.Simulated = elapsed
	w.reads[machine]++
	if p.trace != nil {
		w.emit(rc.Idx, m.Count, elapsed)
	}
	return w.step(res, machine, true)
}

// step ends the walk's step on the chunk at the cursor, billed to machine
// m: the chunk's budget group has one chunk fewer to go and, after a
// charge, consults its stop rule — with the machine's own chunks read and
// clock when the groups are the machines, the walk's totals when the
// store is one group. Then the cursor moves on to the next chunk of a
// group still reading. Once none is, the walk is over with res.Exact
// settled: the certificate over the unread chunks, true when nothing is
// left unread (with an under-filled heap both Kth and any bound are +Inf,
// so the comparison alone would say false).
func (w *Walk) step(res *Result, m int, charged bool) (done bool) {
	p := w.plan
	g, reads, clock := 0, res.ChunksRead, res.Simulated
	if p.group != nil {
		g, reads, clock = m, w.reads[m], w.pipes[m].Elapsed()
	}
	if w.left[g]--; w.left[g] == 0 {
		w.live--
	} else if bound := w.after[w.pos]; charged && p.stop.Done(reads, clock, w.Heap.Kth(), bound) {
		w.unread = math.Min(w.unread, bound)
		w.left[g] = 0
		w.live--
	}
	if w.live == 0 {
		res.Exact = math.IsInf(w.unread, 1) || w.unread > w.Heap.Kth()
		return true
	}
	for {
		if w.pos++; w.pos == w.sorted {
			w.order(w.sorted)
		}
		if w.left[p.groupOf(w.ranked[w.pos].Idx)] > 0 {
			return false
		}
	}
}

// emit delivers the trace event of the chunk just charged. It is kept
// out of Charge so the untraced step keeps a small stack frame.
func (w *Walk) emit(chunk, count int, elapsed time.Duration) {
	w.events = w.Heap.AppendAll(w.events[:0])
	w.plan.trace(w.Query, Event{
		Ordinal:    w.pos + 1,
		ChunkIndex: chunk,
		ChunkCount: count,
		Elapsed:    elapsed,
		Neighbors:  w.events,
	})
}

// Finish completes res once the walk is over: sorted neighbors and the
// per-machine breakdown of a multi-machine layout. A degraded result is
// never exact — the certificate only bounds unread chunks after the stop
// point, and a skipped chunk before it may hold closer neighbors.
func (w *Walk) Finish(res *Result) {
	if res.Degraded {
		res.Exact = false
	}
	if w.plan.owner != nil {
		for m := range w.pipes {
			res.PerMachine = append(res.PerMachine, MachineCost{ChunksRead: w.reads[m], ChunksSkipped: w.skips[m], Elapsed: w.pipes[m].Elapsed()})
		}
	}
	res.Neighbors = w.Heap.SortedInto(res.Neighbors)
}

// ScanChunk offers every descriptor of the chunk to the heap — step 2 of
// the paper's algorithm: the batch kernel computes all squared distances
// over the chunk's contiguous backing array, and the heap takes them in
// one pass. The d2 scratch is reused when large enough and the (possibly
// grown) buffer is returned, so steady-state callers never allocate.
func ScanChunk(q vec.Vector, dims int, data *chunkfile.Data, heap *knn.Heap, d2 []float64) []float64 {
	n := data.Len()
	if cap(d2) < n {
		d2 = make([]float64, n)
	}
	vec.SquaredDistancesTo(q, data.Vecs, dims, d2[:n])
	heap.OfferSquaredAll(data.IDs, d2[:n])
	return d2
}
