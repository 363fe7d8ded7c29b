package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's side of it. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartNs int64  `json:"start_ns"` // since the tracer was made
	EndNs   int64  `json:"end_ns"`
	class   class
}

// Span levels of one request; a span's ID is Req*levels+level+1 and its
// parent is the level above, so IDs need no coordination across layers.
const (
	levelClient = iota
	levelServer
	levelBackend
	levels
)

// tracer keeps spans in memory until the run ends. While off, the
// client sends no request numbers and no layer records anything, so the
// same in-process server can be measured with and without tracing.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	nextReq atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) add(name string, req int64, level int, c class, start, end time.Time) {
	sp := span{
		Name:    name,
		Req:     req,
		ID:      req*levels + int64(level) + 1,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs:   end.Sub(t.epoch).Nanoseconds(),
		class:   c,
	}
	if level > 0 {
		sp.Parent = sp.ID - 1
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type reqIDKey struct{}

// handler records a server.handle span around next for requests that
// carry the client's request number, and passes the number down in the
// request context, from which the server derives the search context.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(headerRequestID), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, req)))
		t.add("server.handle", req, levelServer, 0, start, time.Now())
	})
}

// tracedBackend records a backend.* span around each facade call the
// server makes. Embedding the index forwards everything else, so the
// server still sees its health, load and cache surfaces.
type tracedBackend struct {
	*repro.ShardedIndex
	t *tracer
}

func (b tracedBackend) span(name string, ctx context.Context, start time.Time) {
	if ctx == nil {
		return
	}
	if req, ok := ctx.Value(reqIDKey{}).(int64); ok {
		b.t.add(name, req, levelBackend, 0, start, time.Now())
	}
}

func (b tracedBackend) Search(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
	defer b.span("backend.search", opts.Ctx, time.Now())
	return b.ShardedIndex.Search(q, opts)
}

func (b tracedBackend) SearchBatchInto(queries []repro.Vector, opts repro.BatchOptions, results []repro.Result) error {
	defer b.span("backend.batch", opts.Ctx, time.Now())
	return b.ShardedIndex.SearchBatchInto(queries, opts, results)
}

func (b tracedBackend) SearchBatchStream(queries []repro.Vector, opts repro.BatchOptions, results []repro.Result, done func(int)) error {
	defer b.span("backend.batch", opts.Ctx, time.Now())
	return b.ShardedIndex.SearchBatchStream(queries, opts, results, done)
}

func (b tracedBackend) MultiSearch(descriptors []repro.Vector, opts repro.MultiSearchOptions) (*repro.MultiResult, error) {
	defer b.span("backend.multi", opts.Ctx, time.Now())
	return b.ShardedIndex.MultiSearch(descriptors, opts)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children that overlap each other
// (parallel calls) are counted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), sp.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, sp.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[sp.ID] = sp.EndNs - sp.StartNs - covered
	}
	return self
}

// requestSplit is one traced request cut at the layer boundaries, in µs.
type requestSplit struct {
	class                             class
	total, client, frontDoor, backend float64
}

// splitRequests turns spans into one requestSplit per request that has
// all three levels: client.self = client.request − server.handle,
// frontDoor = server.handle − backend.*, backend = backend.* itself.
func splitRequests(spans []span) []requestSplit {
	self := selfTimes(spans)
	type parts struct {
		have              int
		class             class
		total, cl, fd, be int64
	}
	byReq := map[int64]*parts{}
	for _, sp := range spans {
		p := byReq[sp.Req]
		if p == nil {
			p = &parts{}
			byReq[sp.Req] = p
		}
		p.have++
		switch (sp.ID - 1) % levels {
		case levelClient:
			p.class, p.total, p.cl = sp.class, sp.EndNs-sp.StartNs, self[sp.ID]
		case levelServer:
			p.fd = self[sp.ID]
		case levelBackend:
			p.be = self[sp.ID]
		}
	}
	out := make([]requestSplit, 0, len(byReq))
	for _, p := range byReq {
		if p.have != levels {
			continue
		}
		out = append(out, requestSplit{
			class: p.class, total: float64(p.total) / 1e3,
			client: float64(p.cl) / 1e3, frontDoor: float64(p.fd) / 1e3, backend: float64(p.be) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total < out[j].total })
	return out
}

// medianBand averages the splits whose total lies between the 45th and
// 55th percentile. Its parts sum to its total exactly, which a column of
// independent medians would not, and its total sits at the p50.
func medianBand(sorted []requestSplit) requestSplit {
	lo, hi := len(sorted)*45/100, len(sorted)*55/100
	if hi <= lo {
		lo, hi = 0, len(sorted)
	}
	var b requestSplit
	for _, r := range sorted[lo:hi] {
		b.total += r.total
		b.client += r.client
		b.frontDoor += r.frontDoor
		b.backend += r.backend
	}
	n := float64(hi - lo)
	if n == 0 {
		return b
	}
	b.total /= n
	b.client /= n
	b.frontDoor /= n
	b.backend /= n
	return b
}
