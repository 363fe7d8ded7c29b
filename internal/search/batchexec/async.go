package batchexec

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/search"
	"repro/internal/vec"
)

// The scheduler: an asynchronous per-chunk work queue. Every distinct
// chunk of the store owns one chunkTask; a query subscribes to the single
// chunk its rank order wants next, the task is queued when it gains its
// first subscriber, and whichever goroutine pops it decodes the chunk
// once and processes the whole subscriber wave (processChunk): scan, each
// subscriber's walk step in that query's own rank order, and either
// retirement (streaming the completion) or a subscription to the query's
// next chunk. Subscriptions arriving while a task runs form the next
// wave: the finishing processor re-queues the task itself, so a chunk is
// never decoded concurrently with itself and a query is subscribed to at
// most one task at a time — which is the whole mutual-exclusion story:
// a query's state is only ever touched by the processor of the one task
// it is subscribed to.
//
// Tasks run on the process-wide pool up to the run's parallelism; beyond
// that they overflow to a run-local ready list. Every goroutine that
// pushes to the list drains it before leaving the run (workers after
// each task, the coordinator after seeding), so a ready task can never
// be orphaned and the run cannot deadlock even when the pool is
// saturated by concurrent batches.

// chunkTask is one chunk's decode task: its current subscribers, the
// wave being processed, and whether the task is queued or running.
type chunkTask struct {
	subs []int32 // query states waiting for this chunk (guarded by mu)
	proc []int32 // wave owned by the current processor
	busy bool    // queued or running (guarded by mu)
	mu   sync.Mutex
}

// subscribe registers query state si as waiting for chunk c and queues
// the chunk's task unless it is already queued or running (in which case
// the finishing processor will pick the subscription up as part of the
// next wave). A lone query has no wave to join: it just names its next
// chunk for run's lone loop.
func (a *arena) subscribe(c int, si int32) {
	if a.lone {
		a.next = c
		return
	}
	t := &a.tasks[c]
	t.mu.Lock()
	t.subs = append(t.subs, si)
	if t.busy {
		t.mu.Unlock()
		return
	}
	t.busy = true
	t.mu.Unlock()
	a.enqueue(int32(c))
}

// enqueue hands chunk c's task to the process-wide pool when the run has
// parallel headroom and a worker is free; otherwise the task goes to the
// run-local ready list. With Parallelism 1 the headroom is zero, so the
// whole run executes on the calling goroutine with no pool involvement.
func (a *arena) enqueue(c int32) {
	if a.inflight.Load() < a.maxInflight {
		a.inflight.Add(1)
		a.wg.Add(1)
		select {
		case jobs <- job{a: a, c: c}:
			return
		default:
			a.wg.Done()
			a.inflight.Add(-1)
		}
	}
	a.readyMu.Lock()
	a.ready = append(a.ready, c)
	a.readyMu.Unlock()
}

// popReady takes the oldest ready task, compacting the backing slice
// once the list drains.
func (a *arena) popReady() (int32, bool) {
	a.readyMu.Lock()
	defer a.readyMu.Unlock()
	if a.readyHead == len(a.ready) {
		a.ready = a.ready[:0]
		a.readyHead = 0
		return 0, false
	}
	c := a.ready[a.readyHead]
	a.readyHead++
	return c, true
}

// runTask processes chunk c's task, then keeps draining the run-local
// ready list until it observes it empty. Because every push to the list
// happens inside a task body, and the pushing goroutine always reaches
// this drain loop afterwards, the last goroutine to leave the run
// necessarily leaves the list empty.
func (a *arena) runTask(ws *workerScratch, c int32) {
	for {
		a.processTask(ws, c)
		next, ok := a.popReady()
		if !ok {
			return
		}
		c = next
	}
}

// processTask claims the task's current subscriber wave and processes
// the chunk for all of them. If new subscribers arrived meanwhile the
// task re-queues itself for the next wave; otherwise it goes idle.
func (a *arena) processTask(ws *workerScratch, c int32) {
	t := &a.tasks[c]
	t.mu.Lock()
	t.subs, t.proc = t.proc[:0], t.subs
	members := t.proc
	t.mu.Unlock()

	if len(members) > 0 {
		// Members ascend by state: deterministic error attribution (the
		// lowest query of the wave owns a read failure) and the scanGroup
		// merge walk both rely on it.
		slices.Sort(members)
		if !a.aborted(members[0]) {
			a.processChunk(ws, int(c), members)
		}
	}

	t.mu.Lock()
	if len(t.subs) > 0 && !a.failed.Load() {
		t.mu.Unlock()
		a.enqueue(c)
		return
	}
	t.busy = false
	t.mu.Unlock()
}

// aborted reports whether the run has failed or been cancelled,
// recording the cancellation against the given query on first
// observation. Checked before every chunk decode, so after a
// cancellation each live query stops within one chunk charge per
// pipeline.
func (a *arena) aborted(state int32) bool {
	if a.failed.Load() {
		return true
	}
	if a.ctx != nil {
		if err := a.ctx.Err(); err != nil {
			a.fail(state, fmt.Errorf("canceled mid-batch: %w", err))
			return true
		}
	}
	return false
}

// run executes the batch: start every query's walk, then step them on
// the work queue (runQueue) — or, for a lone query, right here on the
// calling goroutine: one walk wants one chunk at a time, so there is no
// wave to share a read with and nothing a pool hand-off would buy. Each
// lone step names the next chunk through subscribe, the cancellation
// check precedes every read, as on the queue, and the query retires here
// once its loop ends. Retiring here rather than in processChunk keeps the
// lone path's call chain short: the shard router runs each shard's point
// query on a fresh goroutine, whose small initial stack a deeper chain
// would grow on every query.
func (a *arena) run(queries []vec.Vector, results []search.Result, parallelism int) error {
	chunks := len(a.store.Meta())
	for qi := range queries {
		st := &a.states[qi]
		st.Query, st.q, st.res = qi, queries[qi], &results[qi]
		st.Reset(&a.plan, st.q, st.res)
	}
	a.lone = len(queries) == 1
	switch {
	case chunks == 0:
		for qi := range a.states {
			a.retire(&a.states[qi])
		}
	case a.lone:
		lone := [1]int32{0}
		for a.next = a.states[0].Next(); a.next >= 0 && !a.aborted(0); {
			c := a.next
			a.next = -1
			a.processChunk(&a.coord, c, lone[:])
		}
		if !a.failed.Load() {
			a.retire(&a.states[0])
		}
	default:
		if parallelism <= 0 {
			parallelism = runtime.GOMAXPROCS(0)
		}
		a.runQueue(chunks, parallelism)
	}
	if a.failed.Load() {
		return &QueryError{Query: int(a.errState), Err: a.err}
	}
	return nil
}

// runQueue executes the batch on the work queue: seed every walk's first
// subscription, drain the overflow the seeding produced, then wait out
// the tasks in flight on the pool.
func (a *arena) runQueue(chunks, workers int) {
	if cap(a.tasks) < chunks {
		// Fresh allocation, never a copy: chunkTask holds a mutex. The
		// store's chunk count is fixed, so per-engine this happens once.
		a.tasks = make([]chunkTask, chunks)
	}
	a.tasks = a.tasks[:chunks]
	for i := range a.tasks {
		t := &a.tasks[i]
		t.subs = t.subs[:0]
		t.proc = t.proc[:0]
		t.busy = false
	}
	a.ready = a.ready[:0]
	a.readyHead = 0
	a.inflight.Store(0)
	if workers <= 1 {
		a.maxInflight = 0
	} else {
		a.maxInflight = int32(workers)
		ensurePool()
	}

	// Subscribe only once every walk is ranked (run did that): pool
	// workers start on the first ready chunk, and a wave formed while the
	// coordinator is still ranking shares its read with fewer queries.
	for qi := range a.states {
		a.subscribe(a.states[qi].Next(), int32(qi))
	}
	for {
		c, ok := a.popReady()
		if !ok {
			break
		}
		a.runTask(&a.coord, c)
	}
	a.wg.Wait()
}
