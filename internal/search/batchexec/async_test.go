package batchexec

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunkfile"
	"repro/internal/faultstore"
	"repro/internal/search"
)

// traceRec is one recorded trace event with the neighbor set copied out
// (Event.Neighbors is reused between a query's events).
type traceRec struct {
	ordinal, chunk, count int
	elapsed               time.Duration
	ids                   []uint32
}

func recordEvent(ev search.Event) traceRec {
	r := traceRec{ordinal: ev.Ordinal, chunk: ev.ChunkIndex, count: ev.ChunkCount, elapsed: ev.Elapsed}
	for _, nb := range ev.Neighbors {
		r.ids = append(r.ids, uint32(nb.ID))
	}
	return r
}

// TestBatchTraceMatchesSingleQuery pins the trace hook against batches of
// one: for every query, a batch emits the same events (ordinal, chunk,
// chunk count, simulated elapsed, and the evolving neighbor set) in the
// same rank order as the query run alone, inline and in parallel — events
// of one query are ordered even when queries interleave.
func TestBatchTraceMatchesSingleQuery(t *testing.T) {
	mem, queries := buildStore(t)
	queries = queries[:16]
	eng := New(mem)
	stop := search.ChunkBudget(5)

	want := make([][]traceRec, len(queries))
	for qi := range queries {
		runEach(t, eng, queries[qi:qi+1], Options{K: 10, Stop: stop, Trace: func(_ int, ev search.Event) {
			want[qi] = append(want[qi], recordEvent(ev))
		}})
	}

	for _, par := range []int{1, 0} {
		var mu sync.Mutex
		got := make([][]traceRec, len(queries))
		results := make([]search.Result, len(queries))
		err := eng.Run(queries, Options{K: 10, Stop: stop, Parallelism: par,
			Trace: func(qi int, ev search.Event) {
				rec := recordEvent(ev)
				mu.Lock()
				got[qi] = append(got[qi], rec)
				mu.Unlock()
			}}, results)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("p%d q%d: %d events != %d", par, qi, len(got[qi]), len(want[qi]))
			}
			for i, w := range want[qi] {
				g := got[qi][i]
				if g.ordinal != w.ordinal || g.chunk != w.chunk || g.count != w.count || g.elapsed != w.elapsed ||
					!slices.Equal(g.ids, w.ids) {
					t.Fatalf("p%d q%d event %d: %+v != %+v", par, qi, i, g, w)
				}
			}
		}
	}
}

// cancelStore cancels a context during the Nth ReadChunk and counts
// reads, so the cancellation point is deterministic.
type cancelStore struct {
	chunkfile.Store
	reads    atomic.Int64
	cancelAt int64
	cancel   context.CancelFunc
}

func (s *cancelStore) ReadChunk(i int, data *chunkfile.Data) error {
	if s.reads.Add(1) == s.cancelAt {
		s.cancel()
	}
	return s.Store.ReadChunk(i, data)
}

// TestBatchMidCancel pins that cancellation is observed between chunk
// decode tasks. After ctx is canceled mid-batch, each in-flight processor
// finishes at most the one chunk it already holds — with Parallelism 1
// that means at most one read after the cancellation — and the run fails
// with an error wrapping ctx.Err().
func TestBatchMidCancel(t *testing.T) {
	mem, queries := buildStore(t)

	const cancelAt = 7
	for _, par := range []int{1, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancelStore{Store: mem, cancelAt: cancelAt, cancel: cancel}
		eng := New(cs)
		results := make([]search.Result, len(queries))
		err := eng.Run(queries, Options{K: 10, Stop: search.ToCompletion{}, Parallelism: par, Ctx: ctx}, results)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p%d: want error wrapping context.Canceled, got %v", par, err)
		}
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("p%d: want QueryError, got %T", par, err)
		}
		// Every processor checks ctx before its decode, so reads after the
		// cancellation are bounded by the tasks already holding a chunk:
		// exactly the canceling read itself at Parallelism 1, and at most
		// one per concurrent processor (the pool plus the coordinator)
		// otherwise.
		limit := int64(cancelAt)
		if par != 1 {
			limit += int64(runtime.GOMAXPROCS(0)) + 1
		}
		if got := cs.reads.Load(); got > limit {
			t.Fatalf("p%d: %d reads, want <= %d after cancel at read %d", par, got, limit, cancelAt)
		}
	}
}

// gateStore blocks every read of one chunk until the gate channel is
// closed, modeling a straggler chunk with a deterministic release point.
type gateStore struct {
	chunkfile.Store
	chunk int
	gate  chan struct{}
}

func (s *gateStore) ReadChunk(i int, data *chunkfile.Data) error {
	if i == s.chunk {
		<-s.gate
	}
	return s.Store.ReadChunk(i, data)
}

// TestBatchStragglerStreams pins the point of a barrier-free queue: one
// artificially slow chunk delays exactly its own subscribers. Every query
// whose rank-order prefix avoids the straggler chunk completes and
// streams its callback while the straggler is still blocked; the blocked
// queries complete after release, all with results byte-identical to the
// ungated run.
func TestBatchStragglerStreams(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second worker to make progress around the blocked chunk")
	}
	mem, queries := buildStore(t)
	stop := search.ChunkBudget(4)

	// Baseline (and the expected blocked set): queries reading the
	// straggler chunk within their budget are exactly those that will
	// subscribe to it.
	eng := New(mem)
	want := make([]search.Result, len(queries))
	reads := make([][]int, len(queries))
	if err := eng.Run(queries, Options{K: 10, Stop: stop, Parallelism: 1, Trace: func(qi int, ev search.Event) {
		reads[qi] = append(reads[qi], ev.ChunkIndex)
	}}, want); err != nil {
		t.Fatal(err)
	}
	straggler := reads[0][0] // first chunk of query 0's rank order: guaranteed subscribed
	blocked := make([]bool, len(queries))
	nBlocked := 0
	for qi := range queries {
		for _, c := range reads[qi] {
			if c == straggler {
				blocked[qi] = true
				nBlocked++
				break
			}
		}
	}

	gs := &gateStore{Store: mem, chunk: straggler, gate: make(chan struct{})}
	geng := New(gs)
	var mu sync.Mutex
	var released atomic.Bool // set just before the gate opens
	nDone := 0
	unblockedDone := make(chan struct{})
	results := make([]search.Result, len(queries))
	runErr := make(chan error, 1)
	go func() {
		runErr <- geng.RunStream(queries, Options{K: 10, Stop: stop, Parallelism: 4}, results,
			func(qi int) {
				mu.Lock()
				defer mu.Unlock()
				switch after := released.Load(); {
				case blocked[qi] && !after:
					t.Errorf("q%d subscribes to straggler chunk %d but completed before release", qi, straggler)
				case !blocked[qi] && after:
					t.Errorf("q%d avoids straggler chunk %d but completed only after release", qi, straggler)
				}
				if nDone++; nDone == len(queries)-nBlocked {
					close(unblockedDone)
				}
			})
	}()

	// All unaffected queries stream while the straggler chunk is still
	// blocked; only then is the gate released.
	select {
	case <-unblockedDone:
	case err := <-runErr:
		t.Fatalf("batch returned before straggler release: %v", err)
	case <-time.After(30 * time.Second):
		mu.Lock()
		t.Fatalf("timeout: %d/%d unaffected queries streamed", nDone, len(queries)-nBlocked)
	}
	released.Store(true)
	close(gs.gate)
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if d := diff(&results[qi], &want[qi]); d != "" {
			t.Fatalf("q%d: gated result differs from the ungated run: %s", qi, d)
		}
	}
}

// TestBatchAsyncStress exercises the work queue under the race detector:
// several concurrent batches (plain, streaming, and one canceled
// mid-flight) share one engine over a latency-widened store, so
// subscribe/complete/cancel interleave across the process-wide pool.
func TestBatchAsyncStress(t *testing.T) {
	mem, queries := buildStore(t)
	queries = queries[:24]
	slow := faultstore.Wrap(mem, faultstore.Config{Latency: 200 * time.Microsecond})
	eng := New(slow)
	stop := search.ChunkBudget(3)

	want := make([]search.Result, len(queries))
	if err := eng.Run(queries, Options{K: 10, Stop: stop}, want); err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			results := make([]search.Result, len(queries))
			if err := eng.Run(queries, Options{K: 10, Stop: stop}, results); err != nil {
				t.Error(err)
				return
			}
			for qi := range want {
				if d := diff(&results[qi], &want[qi]); d != "" {
					t.Errorf("concurrent run q%d: %s", qi, d)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			var fired atomic.Int64
			results := make([]search.Result, len(queries))
			if err := eng.RunStream(queries, Options{K: 10, Stop: stop}, results, func(int) {
				fired.Add(1)
			}); err != nil {
				t.Error(err)
				return
			}
			if fired.Load() != int64(len(queries)) {
				t.Errorf("stream fired %d callbacks, want %d", fired.Load(), len(queries))
			}
		}()
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(time.Duration(500+100*r)*time.Microsecond, cancel)
			defer cancel()
			results := make([]search.Result, len(queries))
			err := eng.Run(queries, Options{K: 10, Stop: stop, Ctx: ctx}, results)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("canceled run: unexpected error %v", err)
			}
		}()
	}
	wg.Wait()
}
