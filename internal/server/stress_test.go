package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultstore"
)

// TestStressShedDegradeDrain is the serving layer's acceptance test,
// meant to run under -race: a replicated fleet with shard 0 dead and no
// replica (R=1) serves 2× its admission capacity of concurrent clients.
// The invariants:
//
//   - every response is 200, 429, or 503 — nothing hangs, nothing leaks
//     a 500 out of overload handling;
//   - every 200 is honest about degradation: with an unreplicated shard
//     dead, Degraded is set, skipped chunks are counted, and the down
//     shard is reported;
//   - graceful shutdown drains the in-flight request to a real 200 and
//     leaves zero server goroutines behind.
func TestStressShedDegradeDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	b, faults, coll := faultedRouter(t, 4000, faultSeed(t), 4, 1, faultstore.Config{
		Seed:          faultSeed(t),
		TransientProb: 0.01,
		Latency:       500 * time.Microsecond,
	})
	faults[0].Kill()
	reg := NewRegistry()
	if err := reg.Add("main", b); err != nil {
		t.Fatal(err)
	}
	// TenantBurst 20 against admission estimates of 8 to 20 chunks (a
	// declared budget is priced once per shard, on 4 shards) makes bucket
	// exhaustion reachable within the test's short run while every
	// request stays within the burst; rate 1/s keeps refill negligible
	// over its few seconds.
	s := New(reg, Config{
		MaxInFlight:   2,
		TenantRate:    1,
		TenantBurst:   20,
		ProbeInterval: 20 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	post := func(path string, body any, headers map[string]string) (int, []byte, http.Header) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil, nil
		}
		req, err := http.NewRequest("POST", base+path, bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			return 0, nil, nil
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("request failed outright: %v", err)
			return 0, nil, nil
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return 0, nil, nil
		}
		return resp.StatusCode, out, resp.Header
	}

	// Warm query: pays the dead shard's discovery cost so the router's
	// health state (and thus ShardsDown on later 200s) is settled before
	// the measured load.
	if code, raw, _ := post("/v1/indexes/main/search",
		SearchRequest{Query: coll.Vec(0), K: 10, MaxChunks: 3}, nil); code != 200 {
		t.Fatalf("warm query: %d (%s)", code, raw)
	}

	// 2× saturating load: 10 concurrent clients against MaxInFlight 2.
	// Half the clients share one tenant, half get private tenants; every
	// 5th request carries a 1ms deadline it cannot meet (deadline 503s).
	// The limiter sheds the overflow with 503s.
	const clients, perClient = 10, 25
	var count200, count429, count503, countOther atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := "heavy"
			if c%2 == 0 {
				tenant = fmt.Sprintf("light-%d", c)
			}
			for i := 0; i < perClient; i++ {
				headers := map[string]string{HeaderTenant: tenant}
				if i%5 == 4 {
					headers[HeaderTenant] = fmt.Sprintf("deadline-%d", c)
					headers[HeaderDeadlineMs] = "1"
				}
				var code int
				var raw []byte
				var hdr http.Header
				if i%7 == 6 {
					code, raw, hdr = post("/v1/indexes/main/batch", BatchRequest{
						Queries: [][]float32{coll.Vec(i * 31 % 4000), coll.Vec(i * 53 % 4000)},
						K:       10, MaxChunks: 2,
					}, headers)
					if code == 200 {
						var br BatchResponse
						if err := json.Unmarshal(raw, &br); err != nil {
							t.Error(err)
						} else if !br.Degraded {
							t.Errorf("batch 200 with dead unreplicated shard not degraded: %s", raw)
						}
					}
				} else {
					code, raw, hdr = post("/v1/indexes/main/search", SearchRequest{
						Query: coll.Vec((c*perClient + i) * 13 % 4000),
						K:     10, MaxChunks: 2,
					}, headers)
					if code == 200 {
						var sr SearchResponse
						if err := json.Unmarshal(raw, &sr); err != nil {
							t.Error(err)
						} else if !sr.Degraded || sr.ChunksSkipped == 0 || sr.ShardsDown < 1 {
							t.Errorf("200 with dead unreplicated shard not honest: %s", raw)
						}
					}
				}
				switch code {
				case 200:
					count200.Add(1)
				case 429:
					count429.Add(1)
					if hdr.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
				case 503:
					count503.Add(1)
					if hdr.Get("Retry-After") == "" {
						t.Error("503 without Retry-After")
					}
				default:
					countOther.Add(1)
					t.Errorf("status %d under overload (want only 200/429/503): %s", code, raw)
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("load: 200=%d 429=%d 503=%d other=%d",
		count200.Load(), count429.Load(), count503.Load(), countOther.Load())
	if count200.Load() == 0 {
		t.Error("overload starved every request: want some 200s")
	}
	if count503.Load() == 0 {
		t.Error("overload and 1ms deadlines never produced a 503")
	}

	// Tenant-bucket shedding, deterministically: with the concurrent
	// load over, a fresh tenant spends its whole bucket on one request;
	// the next one must 429 with Retry-After.
	code, raw, _ := post("/v1/indexes/main/search",
		SearchRequest{Query: coll.Vec(5), K: 10, MaxChunks: 5},
		map[string]string{HeaderTenant: "bucket-demo"})
	if code != 200 {
		t.Fatalf("bucket-demo first request: %d (%s), want 200", code, raw)
	}
	code, _, hdr := post("/v1/indexes/main/search",
		SearchRequest{Query: coll.Vec(6), K: 10, MaxChunks: 5},
		map[string]string{HeaderTenant: "bucket-demo"})
	if code != 429 {
		t.Fatalf("bucket-demo second request: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	count429.Add(1)

	// Graceful drain: park one request mid-execution, shut down, and
	// require it to finish as a real 200 rather than being dropped. Its
	// global budget of 18 chunks fits the fresh tenant's burst.
	inFlight := make(chan struct {
		code int
		raw  []byte
	}, 1)
	go func() {
		code, raw, _ := post("/v1/indexes/main/search", SearchRequest{
			Query: coll.Vec(99), K: 10, MaxChunks: 18, GlobalBudget: true,
		}, map[string]string{HeaderTenant: "drain"})
		inFlight <- struct {
			code int
			raw  []byte
		}{code, raw}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.limiter.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drain request never entered the server")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown, want nil", err)
	}
	res := <-inFlight
	if res.code != 200 {
		t.Fatalf("in-flight request during drain: %d (%s), want 200", res.code, res.raw)
	}

	// Zero leaked goroutines: after shutdown and idle-connection
	// teardown, we return to the pre-server baseline (with slack for
	// runtime helpers that retire asynchronously).
	client.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineStopsCharging pins the budget-containment guarantee: once
// a request's deadline fires, each shard's pipeline stops within one
// chunk charge — an abandoned request cannot keep billing the fleet.
func TestDeadlineStopsCharging(t *testing.T) {
	const shards = 2
	perRead := 25 * time.Millisecond
	b, faults, coll := faultedRouter(t, 3000, faultSeed(t), shards, 1, faultstore.Config{
		Latency: perRead,
	})
	reg := NewRegistry()
	if err := reg.Add("main", b); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := struct{ URL string }{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	ts.URL = "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-serveErr
	}()

	var before int64
	for _, f := range faults {
		before += f.Reads()
	}
	// A huge chunk budget with a 60ms deadline over 25ms reads: each
	// shard completes at most 2-3 reads before its next between-chunks
	// context check aborts the walk.
	body, _ := json.Marshal(SearchRequest{Query: coll.Vec(7), K: 10, MaxChunks: 1000})
	req, err := http.NewRequest("POST", ts.URL+"/v1/indexes/main/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderDeadlineMs, "60")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("expired request: %d (%s), want 503", resp.StatusCode, raw)
	}
	// The handler has answered, but a runaway search would still be
	// reading in the background; give any such stragglers time to show
	// up before counting.
	time.Sleep(4 * perRead)
	var after int64
	for _, f := range faults {
		after += f.Reads()
	}
	// 60ms / 25ms = at most 3 reads per shard pipeline (2 complete, one
	// in flight when the deadline fires), plus one for slack.
	maxReads := int64(shards * 4)
	if got := after - before; got > maxReads {
		t.Fatalf("deadline'd request charged %d reads across %d shards, want <= %d (one chunk past the deadline per pipeline)",
			got, shards, maxReads)
	}
	if got := s.Metrics().Snapshot(0, nil).DeadlineMiss; got != 1 {
		t.Fatalf("DeadlineMiss = %d, want 1", got)
	}
}
