// Package batchexec is the query engine: the one driver of search.Walk,
// for whole workloads (the paper runs 1,000-query workloads, §5.3) and
// for point queries alike — a point query is a batch of one.
//
// The paper's algorithm is query-major: each query ranks the chunks, then
// reads and scans them in its own rank order. Run naively over a
// workload, the same chunk is read, decoded and streamed through the
// cache once per query that wants it. This engine inverts the loops
// chunk-major: every distinct chunk wanted by at least one live query
// becomes a decode task, read and decoded once per subscriber wave, then
// scanned against all of its subscribers back to back while its
// descriptors are hot in cache (those still filling their heaps share one
// vec.SquaredDistancesMulti kernel call per row block, the rest scan the
// chunk's codes — see scanGroup).
//
// The inverted loop runs on an asynchronous work queue (async.go). Each
// query subscribes to the one chunk its rank order wants next; a chunk's
// task is queued when it gains its first subscriber, and a worker that
// pops it scans the chunk for every subscriber of that wave, takes each
// subscriber's walk one step (search.Walk — the per-(query, chunk) step:
// charge, stop rule, certificate), and either retires the query
// (streaming its completion, see RunStream) or subscribes it to its next
// chunk. No barrier exists anywhere: a query's progress is never gated on
// chunks it does not want, so a straggler chunk delays exactly its own
// subscribers. A run of one query wants one chunk at a time, so it runs
// inline on the calling goroutine whatever the parallelism.
//
// A query's outcome does not depend on which queries share its run — a
// batch of N is byte-identical to N batches of one — and the equivalence
// tests pin it:
//
//   - Each query processes chunks in its own rank order (RankChunks), so
//     neighbor sets, ChunksRead and the Exact flag do not depend on the
//     batch.
//   - Simulated timing is per query: every walk owns its simdisk
//     pipelines, charged with exactly the chunks it consumed, in its rank
//     order. Batch code must never share or wall-aggregate simulated time
//     — the model is one 2005 machine per query (one per (query, machine)
//     when the store reports a chunkfile.MachineLayout, the shard
//     router's store). Because each walk's charges land on
//     its own pipelines in its own rank order, the simulated clocks are
//     independent of *when* the scheduler processes a chunk; reordering
//     execution moves wall time only, never results.
//
// All per-query state (the walk: rank cursor, suffix bounds, knn.Heap,
// pipelines) lives in an engine-owned recycled arena, and result neighbor
// slices are recycled from the caller's results array, so a steady-state
// batch performs zero allocations. Decode tasks fan out to a lazily
// started process-wide worker pool; overflow beyond the run's
// parallelism (or the pool's capacity) lands on a run-local ready list
// drained by the run's own goroutines, which keeps Parallelism==1 runs
// free of any goroutine machinery and rules out deadlock when concurrent
// batches share the pool.
package batchexec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/search"
	"repro/internal/vec"
)

// Options configures one batch run. The zero value means k=30,
// run-to-completion, serial pipeline, and one worker per CPU.
type Options struct {
	K       int
	Stop    search.StopRule // must be stateless/concurrency-safe (the built-in rules are)
	Overlap bool            // overlap I/O with CPU in each query's simulated pipeline
	// GlobalBudget spends Stop's budget once across a store whose chunks
	// live on several simulated machines (chunkfile.MachineLayout — the
	// shard router's) instead of once per machine; see search.Walk. It
	// changes nothing on a plain store.
	GlobalBudget bool
	// Parallelism caps the concurrency of a run of two or more queries:
	// <=0 means GOMAXPROCS, 1 runs entirely on the calling goroutine. A
	// run of one query always runs on the calling goroutine.
	Parallelism int
	// Trace, when non-nil, receives one search.Event per (query,
	// processed chunk): Ordinal is the chunk's 1-based position in the
	// query's rank order, Elapsed the query's simulated time including
	// that chunk, Neighbors the current k-NN set (reused between that
	// query's events; do not retain). Events of one query arrive in its
	// rank order; events of distinct queries may arrive concurrently, so
	// the callback must be safe for concurrent use. Skipped (unavailable)
	// chunks emit no event.
	Trace func(query int, ev search.Event)
	// Ctx, when non-nil, cancels the run: it is consulted before every
	// chunk decode task, so each live query stops within one chunk charge
	// of the cancellation. On abort the run returns an
	// error wrapping ctx.Err(); results not already streamed through
	// RunStream's callback are invalid, exactly as on any other batch
	// error. A nil Ctx never stops the run.
	Ctx context.Context
}

// QueryError reports which query of a batch failed.
type QueryError struct {
	Query int
	Err   error
}

// Error formats the failure with its query index.
func (e *QueryError) Error() string { return fmt.Sprintf("batchexec: query %d: %v", e.Query, e.Err) }

// Unwrap returns the underlying error.
func (e *QueryError) Unwrap() error { return e.Err }

// Engine executes batches against one chunk store. It is safe for
// concurrent use; concurrent Runs share the process-wide worker pool.
type Engine struct {
	store chunkfile.Store
	// free holds the arenas no run is using: a mutex-guarded free list
	// rather than a sync.Pool, so the steady-state zero-allocation contract
	// does not depend on when the GC runs.
	mu   sync.Mutex
	free []*arena
}

// New returns an Engine over the given store.
func New(store chunkfile.Store) *Engine {
	return &Engine{store: store}
}

// getArena returns a recycled arena, or a new one when none is free.
func (e *Engine) getArena() *arena {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		a := e.free[n-1]
		e.free = e.free[:n-1]
		return a
	}
	return new(arena)
}

// putArena releases a's references into the finished run and recycles it.
func (e *Engine) putArena(a *arena) {
	a.release()
	e.mu.Lock()
	e.free = append(e.free, a)
	e.mu.Unlock()
}

// queryState is one query of a batch run: its walk plus what the engine
// needs to scan for it and report it.
type queryState struct {
	search.Walk
	q   vec.Vector
	res *search.Result
}

// workerScratch is the per-goroutine scan state: the decoded chunk and
// the kernel buffers. Workers own theirs for the life of the process; the
// coordinator's lives in the arena.
type workerScratch struct {
	data  chunkfile.Data
	scan  search.Scanner // one-query scans, coded or exact
	multi []int32        // the group members scanned by the Multi kernel
	qflat []float32      // gathered Multi queries, Q × dims
	out   []float64      // SquaredDistancesMulti block output
}

// arena is the recycled batch-owned state of one run: all query states
// plus the scheduler's bookkeeping. It doubles as the run context jobs
// carry to pool workers.
type arena struct {
	store chunkfile.Store
	dims  int
	start time.Time
	ctx   context.Context
	plan  search.Plan // the run's options and machine layout, shared by every walk

	onDone func(int) // RunStream's completion callback (nil for Run)

	states []queryState
	coord  workerScratch

	// Scheduler state (async.go). A lone query (a run of one) bypasses the
	// queue: subscribing it only names its next chunk.
	lone        bool
	next        int
	tasks       []chunkTask
	ready       []int32 // run-local overflow queue of chunk tasks
	readyHead   int
	readyMu     sync.Mutex
	inflight    atomic.Int32 // decode tasks handed to the pool
	maxInflight int32

	wg       sync.WaitGroup
	failed   atomic.Bool
	mu       sync.Mutex
	err      error
	errState int32
}

// fail records err for the given query, keeping the error of the lowest
// query index when several chunk tasks fail in flight.
func (a *arena) fail(state int32, err error) {
	a.failed.Store(true)
	a.mu.Lock()
	if a.err == nil || state < a.errState {
		a.err, a.errState = err, state
	}
	a.mu.Unlock()
}

// Run executes every query against the store, writing result qi into
// results[qi]. The results array is caller-owned: neighbor slices already
// present are reused when they have capacity, so recycling one results
// array across batches (the steady-state serving pattern) performs zero
// allocations. On error no results are valid. Run is RunStream without a
// completion stream.
func (e *Engine) Run(queries []vec.Vector, opts Options, results []search.Result) error {
	return e.RunStream(queries, opts, results, nil)
}

// RunStream executes the batch like Run and additionally streams
// per-query completions: done(qi), when non-nil, is invoked exactly once
// per query, after results[qi] is fully written, at the moment the query
// retires — long before the batch returns when other queries are still
// running. Callbacks for distinct queries may fire concurrently (they
// run on the scan workers), so done must be safe for concurrent use and
// should not block; a slow consumer should hand off to its own channel.
// When the run fails, queries whose callback already fired retain valid
// results; all others are invalid. The stop-rule, cost-model and
// byte-identity contracts are exactly Run's.
func (e *Engine) RunStream(queries []vec.Vector, opts Options, results []search.Result, done func(query int)) error {
	if len(queries) == 0 {
		return nil
	}
	if err := e.check(queries, results); err != nil {
		return err
	}
	a := e.getArena()
	err := a.reset(e, &opts, done, len(queries))
	if err == nil {
		err = a.run(queries, results, opts.Parallelism)
	}
	e.putArena(a)
	return err
}

// check validates a run's shape: one result per query, every query of the
// store's dimensionality.
func (e *Engine) check(queries []vec.Vector, results []search.Result) error {
	if len(results) != len(queries) {
		return fmt.Errorf("batchexec: results length %d != queries length %d", len(results), len(queries))
	}
	dims := e.store.Dims()
	for qi, q := range queries {
		if len(q) != dims {
			return &QueryError{Query: qi, Err: fmt.Errorf("query dims %d != store dims %d", len(q), dims)}
		}
	}
	return nil
}

// reset prepares the arena for a run of n queries over e's store.
func (a *arena) reset(e *Engine, opts *Options, done func(int), n int) error {
	a.store = e.store
	a.dims = e.store.Dims()
	a.start = time.Now()
	a.ctx = opts.Ctx
	a.onDone = done
	a.failed.Store(false)
	a.err = nil
	if err := a.plan.Reset(e.store, opts.K, opts.Stop, opts.GlobalBudget, opts.Overlap, opts.Trace); err != nil {
		return fmt.Errorf("batchexec: %w", err)
	}
	if cap(a.states) < n {
		states := make([]queryState, n)
		copy(states, a.states)
		a.states = states
	}
	a.states = a.states[:n]
	return nil
}

// release drops the arena's references into caller memory (queries,
// results, and the run's options and callbacks) so recycling the arena
// does not retain them.
func (a *arena) release() {
	for i := range a.states {
		a.states[i].q = nil
		a.states[i].res = nil
	}
	a.plan.Release()
	a.onDone = nil
	a.ctx = nil
}

// processChunk is the batch-specific half of a step: it reads and decodes
// one chunk once for the whole subscriber wave and scans it for every
// member; each member's walk then takes the shared step, and the member
// retires or subscribes to its next chunk. In the per-query cost model
// each member's machine would have made the read itself, so each is
// billed the read's failed attempts and stall — also when no replica is
// live and the wave skips the chunk. members must be sorted ascending
// (deterministic error attribution relies on it); their states are owned
// by the caller, since a query is subscribed to exactly one task at a
// time.
func (a *arena) processChunk(ws *workerScratch, chunk int, members []int32) {
	err := a.store.ReadChunk(chunk, &ws.data)
	failed, stall := ws.data.FailedReads, ws.data.Stall
	ws.data.FailedReads, ws.data.Stall = 0, 0
	skip := errors.Is(err, chunkfile.ErrUnavailable)
	switch {
	case skip:
	case err != nil:
		a.fail(members[0], err)
		return
	case len(members) == 1:
		st := &a.states[members[0]]
		ws.scan.Scan(st.q, a.dims, &ws.data, &st.Heap)
	default:
		a.scanGroup(ws, members)
	}
	for _, si := range members {
		st := &a.states[si]
		var done bool
		if skip {
			done = st.Skip(st.res, failed, stall)
		} else {
			done = st.Charge(st.res, failed, stall)
		}
		switch {
		case !done:
			a.subscribe(st.Next(), si)
		case !a.lone: // a lone query retires in run, once its loop ends
			a.retire(st)
		}
	}
}

// scanBlock is the row-block granularity of the multi-query kernel: 256
// 24-d float32 rows are 24 KiB, small enough to stay L1-resident while
// every Multi-scanned query of the group streams over them.
const scanBlock = 256

// scanGroup scans one decoded chunk for several queries. On a chunk with
// scan codes, each member whose heap is full scans the codes alone
// (search.Scanner.Scan), which touches a few percent of the rows. The
// others share one SquaredDistancesMulti call per row block, so the
// chunk's rows are loaded once for all of them and the query-pair Multi
// kernels amortize row traffic across queries. The heap contents are
// exactly those a lone Scan would leave: Multi distances are bit-identical
// to the row kernel's.
func (a *arena) scanGroup(ws *workerScratch, members []int32) {
	data := &ws.data
	multi := members
	if data.Codes() != nil {
		ws.multi = ws.multi[:0]
		for _, si := range members {
			st := &a.states[si]
			if st.Heap.Len() < st.Heap.K() {
				ws.multi = append(ws.multi, si)
			} else {
				ws.scan.Scan(st.q, a.dims, data, &st.Heap)
			}
		}
		multi = ws.multi
	}
	switch len(multi) {
	case 0:
	case 1:
		st := &a.states[multi[0]]
		ws.scan.Scan(st.q, a.dims, data, &st.Heap)
	default:
		a.scanMulti(ws, multi)
	}
}

// scanMulti scans the decoded chunk for members with one
// SquaredDistancesMulti call per row block.
func (a *arena) scanMulti(ws *workerScratch, members []int32) {
	data := &ws.data
	dims := a.dims
	n := data.Len()
	qn := len(members)
	if cap(ws.qflat) < qn*dims {
		ws.qflat = make([]float32, qn*dims)
	}
	qf := ws.qflat[:qn*dims]
	for i, si := range members {
		copy(qf[i*dims:(i+1)*dims], a.states[si].q)
	}
	if cap(ws.out) < qn*scanBlock {
		ws.out = make([]float64, qn*scanBlock)
	}
	for r0 := 0; r0 < n; r0 += scanBlock {
		bn := min(n-r0, scanBlock)
		out := ws.out[:qn*bn]
		vec.SquaredDistancesMulti(qf, data.Vecs[r0*dims:(r0+bn)*dims], dims, out)
		ids := data.IDs[r0 : r0+bn]
		for i, si := range members {
			a.states[si].Heap.OfferSquaredAll(ids, out[i*bn:(i+1)*bn])
		}
	}
}

// retire finalizes one query: the walk completes the result, wall time
// runs up to this query's completion, and — when the run streams — the
// completion callback fires after the result is fully written.
func (a *arena) retire(st *queryState) {
	st.Finish(st.res)
	st.res.Wall = time.Since(a.start)
	if a.onDone != nil {
		a.onDone(st.Query)
	}
}

// job hands chunk c's decode task of run a to a pool worker.
type job struct {
	a *arena
	c int32
}

// The process-wide worker pool. Workers are started once, on first
// parallel Run anywhere in the process, and live for the process
// lifetime (they are idle and allocation-free when no batch is running).
// Sharing one pool across engines bounds total goroutines, needs no
// per-engine Close, and lets concurrent batches interleave safely: every
// job carries its arena, and worker scratch is reusable across stores.
var (
	poolOnce sync.Once
	jobs     chan job
)

func ensurePool() {
	poolOnce.Do(func() {
		jobs = make(chan job)
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				var ws workerScratch
				for jb := range jobs {
					jb.a.runTask(&ws, jb.c)
					jb.a.inflight.Add(-1)
					jb.a.wg.Done()
				}
			}()
		}
	})
}
