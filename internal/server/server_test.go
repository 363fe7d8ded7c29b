package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
)

// fakeBackend is a scriptable Backend for exercising the server's
// control paths (limits, deadlines, panics) and metrics plumbing without
// real search work: searchFn answers each query of a batch (one chunk
// read when nil). It has one healthy shard per entry of loads (one when
// loads is empty) and no cache.
type fakeBackend struct {
	searchFn func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error)
	multiFn  func(d []repro.Vector, opts repro.MultiSearchOptions) (*repro.MultiResult, error)
	loads    []repro.ShardLoad
}

func (f *fakeBackend) SearchBatchStream(queries []repro.Vector, opts repro.BatchOptions, results []repro.Result, done func(query int)) error {
	for i, q := range queries {
		results[i] = repro.Result{ChunksRead: 1}
		if f.searchFn != nil {
			res, err := f.searchFn(q, opts.SearchOptions)
			if err != nil {
				return err
			}
			results[i] = *res
		}
	}
	if done != nil {
		for i := range results {
			done(i)
		}
	}
	return nil
}

func (f *fakeBackend) MultiSearch(d []repro.Vector, opts repro.MultiSearchOptions) (*repro.MultiResult, error) {
	if f.multiFn != nil {
		return f.multiFn(d, opts)
	}
	return &repro.MultiResult{Descriptors: len(d), ChunksRead: len(d)}, nil
}

func (f *fakeBackend) Chunks() int                   { return 8 }
func (f *fakeBackend) Len() int                      { return 800 }
func (f *fakeBackend) Close() error                  { return nil }
func (f *fakeBackend) Shards() int                   { return max(len(f.loads), 1) }
func (f *fakeBackend) ShardDown(s int) bool          { return false }
func (f *fakeBackend) ShardsDown() int               { return 0 }
func (f *fakeBackend) MarkShardDown(s int)           {}
func (f *fakeBackend) MarkShardUp(s int)             {}
func (f *fakeBackend) ProbeShard(s int) error        { return nil }
func (f *fakeBackend) ShardLoads() []repro.ShardLoad { return f.loads }
func (f *fakeBackend) CacheStats() repro.CacheStats  { return repro.CacheStats{} }

// buildTestIndex builds a small real one-shard index for end-to-end
// requests.
func buildTestIndex(t testing.TB, n int) (*repro.ShardedIndex, *repro.Collection) {
	t.Helper()
	coll := repro.GenerateCollection(n, 42)
	ix, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 250}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ix, coll
}

// serveTest mounts a server over the given backends and returns the test
// server plus the Server for direct inspection. Cleanup shuts both down.
func serveTest(t testing.TB, cfg Config, backends map[string]Backend) (*httptest.Server, *Server) {
	t.Helper()
	reg := NewRegistry()
	for name, b := range backends {
		if err := reg.Add(name, b); err != nil {
			t.Fatal(err)
		}
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts, s
}

// doJSON posts body as JSON (or GETs when body is nil) and returns the
// response with its decoded-to-bytes body.
func doJSON(t testing.TB, method, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServeSearchBatchMulti drives each search route once over a real
// index (TestWireGolden pins their bodies), then the lifecycle and
// introspection endpoints, and checks the metrics counted the three.
func TestServeSearchBatchMulti(t *testing.T) {
	ix, coll := buildTestIndex(t, 2000)
	ts, _ := serveTest(t, Config{}, map[string]Backend{"main": ix})
	for route, body := range map[string]any{
		"search": SearchRequest{Query: coll.Vec(17), K: 5, MaxChunks: 3},
		"batch":  BatchRequest{Queries: [][]float32{coll.Vec(1), coll.Vec(2), coll.Vec(3)}, K: 4, MaxChunks: 2},
		"multi":  MultiRequest{Descriptors: [][]float32{coll.Vec(40), coll.Vec(41), coll.Vec(42)}},
	} {
		if resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/"+route, body, nil); resp.StatusCode != 200 {
			t.Fatalf("%s: %d: %s", route, resp.StatusCode, raw)
		}
	}

	// Lifecycle and introspection endpoints.
	resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/readyz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	resp, raw := doJSON(t, "GET", ts.URL+"/v1/indexes", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("indexes: %d", resp.StatusCode)
	}
	var idxs []IndexSnapshot
	if err := json.Unmarshal(raw, &idxs); err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 1 || idxs[0].Name != "main" || idxs[0].Descriptors != ix.Len() {
		t.Fatalf("indexes = %+v, want [main with %d descriptors]", idxs, ix.Len())
	}
	resp, raw = doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.OK != 3 || snap.Requests != 3 {
		t.Fatalf("metrics after 3 requests: OK=%d Requests=%d, want 3/3", snap.OK, snap.Requests)
	}
	if snap.ChunksCharged <= 0 {
		t.Fatalf("metrics ChunksCharged = %d, want positive", snap.ChunksCharged)
	}
}

func TestServeBatchStream(t *testing.T) {
	ix, coll := buildTestIndex(t, 2000)
	ts, _ := serveTest(t, Config{}, map[string]Backend{"main": ix})

	queries := [][]float32{coll.Vec(5), coll.Vec(6), coll.Vec(7), coll.Vec(8)}
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/batch",
		BatchRequest{Queries: queries, K: 4, MaxChunks: 2, Stream: true}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stream batch: %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q, want application/x-ndjson", ct)
	}

	dec := json.NewDecoder(bytes.NewReader(raw))
	seen := make(map[int]bool)
	var trailer *BatchStreamItem
	for dec.More() {
		var item BatchStreamItem
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decoding stream line: %v\n%s", err, raw)
		}
		if item.Done {
			trailer = &item
			if dec.More() {
				t.Fatalf("trailer is not the last line:\n%s", raw)
			}
			break
		}
		if item.Query < 0 || item.Query >= len(queries) || seen[item.Query] {
			t.Fatalf("bad or duplicate stream query %d:\n%s", item.Query, raw)
		}
		seen[item.Query] = true
		if item.Result == nil || len(item.Result.Neighbors) == 0 {
			t.Fatalf("stream item for query %d lacks a result:\n%s", item.Query, raw)
		}
		if item.Result.ChunksRead <= 0 || item.Result.ChunksRead > 2 {
			t.Fatalf("query %d chunks_read = %d, want 1..2", item.Query, item.Result.ChunksRead)
		}
	}
	if len(seen) != len(queries) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(queries))
	}
	if trailer == nil {
		t.Fatalf("no trailer line:\n%s", raw)
	}
	if trailer.Error != "" || trailer.ChunksRead <= 0 {
		t.Fatalf("trailer = %+v, want no error and positive chunks_read", trailer)
	}

	// A failing backend surfaces the error in-band on the trailer: the 200
	// status is already committed when streaming begins.
	boom := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		return nil, fmt.Errorf("disk on fire")
	}}
	ts2, _ := serveTest(t, Config{}, map[string]Backend{"flaky": boom})
	resp, raw = doJSON(t, "POST", ts2.URL+"/v1/indexes/flaky/batch",
		BatchRequest{Queries: [][]float32{make([]float32, repro.Dims)}, K: 3, Stream: true}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stream batch error case: status %d, want committed 200", resp.StatusCode)
	}
	dec = json.NewDecoder(bytes.NewReader(raw))
	trailer = nil
	for dec.More() {
		var item BatchStreamItem
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decoding stream line: %v\n%s", err, raw)
		}
		if item.Done {
			trailer = &item
		}
	}
	if trailer == nil || trailer.Error == "" {
		t.Fatalf("failing stream batch: trailer = %+v, want in-band error", trailer)
	}
}

// TestPanicContainment pins that a panicking handler answers 500 and the
// server keeps serving, and that a panic after admission refunds the
// tenant's up-front charge the way an error does: a 4-chunk bucket that
// never refills answers every 4-chunk request with 500, never 429.
func TestPanicContainment(t *testing.T) {
	boom := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		panic("chunk decoder corrupted")
	}}
	ts, s := serveTest(t, Config{TenantRate: 0.001, TenantBurst: 4, Clock: newFakeClock().now},
		map[string]Backend{"boom": boom})
	for i := 0; i < 3; i++ {
		resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/boom/search",
			SearchRequest{Query: make([]float32, repro.Dims), MaxChunks: 4}, nil)
		if resp.StatusCode != 500 {
			t.Fatalf("request %d to a panicking handler: %d (%s), want 500", i, resp.StatusCode, raw)
		}
	}
	// The server survives: liveness still gets answered instead of the
	// process tearing down.
	resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
	if got := s.Metrics().Snapshot(0, nil).ServerErrors; got != 3 {
		t.Fatalf("ServerErrors = %d, want 3", got)
	}
}

func TestInFlightShedding(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		entered <- struct{}{}
		<-release
		return &repro.Result{ChunksRead: 1}, nil
	}}
	ts, s := serveTest(t, Config{MaxInFlight: 1}, map[string]Backend{"slow": slow})

	body := SearchRequest{Query: make([]float32, repro.Dims)}
	done := make(chan int, 1)
	go func() {
		resp, _ := doJSON(t, "POST", ts.URL+"/v1/indexes/slow/search", body, nil)
		done <- resp.StatusCode
	}()
	<-entered // the slot is now held

	resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/slow/search", body, nil)
	if resp.StatusCode != 503 {
		t.Fatalf("second request: %d (%s), want 503 shed", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}
	close(release)
	if got := <-done; got != 200 {
		t.Fatalf("first request: %d, want 200", got)
	}
	snap := s.Metrics().Snapshot(0, nil)
	if snap.ShedInFlight != 1 || snap.OK != 1 {
		t.Fatalf("ShedInFlight=%d OK=%d, want 1/1", snap.ShedInFlight, snap.OK)
	}
}

func TestTenantBucketsShedAndIsolate(t *testing.T) {
	clock := newFakeClock()
	echo := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		return &repro.Result{ChunksRead: opts.MaxChunks}, nil
	}}
	ts, _ := serveTest(t, Config{TenantRate: 10, TenantBurst: 10, Clock: clock.now},
		map[string]Backend{"main": echo})

	body := SearchRequest{Query: make([]float32, repro.Dims), MaxChunks: 10}
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", body,
		map[string]string{HeaderTenant: "alice"})
	if resp.StatusCode != 200 {
		t.Fatalf("first request: %d (%s)", resp.StatusCode, raw)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", body,
		map[string]string{HeaderTenant: "alice"})
	if resp.StatusCode != 429 {
		t.Fatalf("over-budget tenant: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Another tenant is unaffected: buckets are per-tenant, not global.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", body,
		map[string]string{HeaderTenant: "bob"})
	if resp.StatusCode != 200 {
		t.Fatalf("other tenant: %d, want 200", resp.StatusCode)
	}
	// Refill readmits.
	clock.advance(time.Second)
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", body,
		map[string]string{HeaderTenant: "alice"})
	if resp.StatusCode != 200 {
		t.Fatalf("refilled tenant: %d, want 200", resp.StatusCode)
	}
}

func TestTenantRefundOnEarlyStop(t *testing.T) {
	// The backend reads only 1 of its 2-chunk budget; each request's net
	// cost is 1 chunk. A 6-chunk bucket with a frozen clock then admits
	// 5 such requests — without refunds it would only admit 3.
	cheap := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		return &repro.Result{ChunksRead: 1}, nil
	}}
	ts, _ := serveTest(t, Config{TenantRate: 0.001, TenantBurst: 6, Clock: newFakeClock().now},
		map[string]Backend{"main": cheap})
	body := SearchRequest{Query: make([]float32, repro.Dims), MaxChunks: 2}
	for i := 0; i < 5; i++ {
		resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", body, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: %d (%s) — early-stop refunds not happening", i, resp.StatusCode, raw)
		}
	}
	// 1 token left: the bucket is real, not disabled.
	resp, _ := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", body, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("drained bucket: %d, want 429", resp.StatusCode)
	}
}

// TestTenantHugeMaxChunksCannotBypassBucket pins that admission caps a
// request's estimate at the index's chunk count before multiplying: a
// batch whose max_chunks × queries would overflow is charged what it can
// read, so it is shed by a one-chunk bucket instead of slipping through
// on a wrapped-negative estimate and refilling the bucket on settle.
func TestTenantHugeMaxChunksCannotBypassBucket(t *testing.T) {
	ts, _ := serveTest(t, Config{TenantRate: 1, TenantBurst: 1, Clock: newFakeClock().now},
		map[string]Backend{"main": &fakeBackend{}})
	q := make([]float32, repro.Dims)
	huge := BatchRequest{Queries: [][]float32{q, q}, MaxChunks: 1 << 62}
	for i := 0; i < 3; i++ {
		if resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/batch", huge, nil); resp.StatusCode != 429 {
			t.Fatalf("batch %d with max_chunks 2^62: %d (%s), want 429", i, resp.StatusCode, raw)
		}
	}
	honest := SearchRequest{Query: q, MaxChunks: 1}
	if resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search", honest, nil); resp.StatusCode != 200 {
		t.Fatalf("honest one-chunk search: %d (%s), want 200", resp.StatusCode, raw)
	}
}

func TestBestEffortShrink(t *testing.T) {
	var gotMaxChunks int
	var mu sync.Mutex
	echo := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		mu.Lock()
		gotMaxChunks = opts.MaxChunks
		mu.Unlock()
		return &repro.Result{ChunksRead: opts.MaxChunks}, nil
	}}
	clock := newFakeClock()
	ts, s := serveTest(t, Config{TenantRate: 10, TenantBurst: 10, BestEffort: true, Clock: clock.now},
		map[string]Backend{"main": echo})

	// Drain the bucket to 4 tokens, then ask for 20: best-effort admits
	// at a 4-chunk budget instead of shedding.
	if ok, _ := s.buckets.Take(DefaultTenant, 6); !ok {
		t.Fatal("priming take failed")
	}
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search",
		SearchRequest{Query: make([]float32, repro.Dims), MaxChunks: 20}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("best-effort request: %d (%s), want 200", resp.StatusCode, raw)
	}
	var sr SearchResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ChunksGranted != 4 {
		t.Fatalf("chunks_granted = %d, want 4", sr.ChunksGranted)
	}
	mu.Lock()
	got := gotMaxChunks
	mu.Unlock()
	if got != 4 {
		t.Fatalf("backend saw MaxChunks = %d, want the shrunk 4", got)
	}
	if s.Metrics().Snapshot(0, nil).BestEffort != 1 {
		t.Fatal("BestEffort metric not recorded")
	}

	// An empty bucket still sheds even in best-effort mode.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/indexes/main/search",
		SearchRequest{Query: make([]float32, repro.Dims), MaxChunks: 20}, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("empty-bucket best-effort: %d, want 429", resp.StatusCode)
	}

	// Time-budget requests are never shrunk: they shed.
	clock.advance(time.Hour)
	if ok, _ := s.buckets.Take(DefaultTenant, 8); !ok { // leave 2 tokens
		t.Fatal("priming take failed")
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/indexes/main/search",
		SearchRequest{Query: make([]float32, repro.Dims), MaxTimeUs: 1000}, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("timed request with poor bucket: %d, want 429 (no shrink)", resp.StatusCode)
	}
}

func TestDeadlineMiss(t *testing.T) {
	blocked := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		<-opts.Ctx.Done()
		return nil, fmt.Errorf("search: canceled after 0 chunks: %w", opts.Ctx.Err())
	}}
	ts, s := serveTest(t, Config{}, map[string]Backend{"main": blocked})

	resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search",
		SearchRequest{Query: make([]float32, repro.Dims)},
		map[string]string{HeaderDeadlineMs: "30"})
	if resp.StatusCode != 503 {
		t.Fatalf("expired request: %d (%s), want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline miss must carry Retry-After")
	}
	if got := s.Metrics().Snapshot(0, nil).DeadlineMiss; got != 1 {
		t.Fatalf("DeadlineMiss = %d, want 1", got)
	}
}

func TestDefaultDeadlineBecomesTimeBudget(t *testing.T) {
	var gotMaxTime time.Duration
	var mu sync.Mutex
	echo := &fakeBackend{searchFn: func(q repro.Vector, opts repro.SearchOptions) (*repro.Result, error) {
		mu.Lock()
		gotMaxTime = opts.MaxTime
		mu.Unlock()
		return &repro.Result{ChunksRead: 1}, nil
	}}
	ts, _ := serveTest(t, Config{DefaultDeadline: 5 * time.Second}, map[string]Backend{"main": echo})
	resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/main/search",
		SearchRequest{Query: make([]float32, repro.Dims)}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("request: %d (%s)", resp.StatusCode, raw)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotMaxTime <= 0 || gotMaxTime > 5*time.Second {
		t.Fatalf("MaxTime = %v, want (0, 5s]: the deadline should become the simulated budget", gotMaxTime)
	}
}

func TestDrainingGate(t *testing.T) {
	ix, coll := buildTestIndex(t, 1000)
	reg := NewRegistry()
	if err := reg.Add("main", ix); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := doJSON(t, "GET", ts.URL+"/readyz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/readyz", nil, nil)
	if resp.StatusCode != 503 {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/indexes/main/search",
		SearchRequest{Query: coll.Vec(0)}, nil)
	if resp.StatusCode != 503 {
		t.Fatalf("search while draining: %d, want 503", resp.StatusCode)
	}
	// Liveness stays green during drain: the process is healthy, just
	// not accepting new work.
	resp, _ = doJSON(t, "GET", ts.URL+"/healthz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
}
