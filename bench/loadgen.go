package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// headerRequestID carries the client's request number to the traced
// in-process server so spans of one request share it; reprod ignores it.
const headerRequestID = "X-Request-Id"

// answer is a decoded 200 kept for verification: per-query results in
// request order for /search and /batch, the image ranking for /multi.
type answer struct {
	results []server.SearchResponse
	multi   *server.MultiResponse
}

// sample is one request as the client saw it.
type sample struct {
	req    int     // index into workload.reqs
	at     float64 // seconds since the window opened: due time (open loop) or send time
	ms     float64 // latency from at to the last response byte decoded
	lateMs float64 // open loop: how long after its due time the request left
	failed bool
}

// tally sums what the answered queries of one sender reported.
type tally struct {
	queries  int       // descriptor queries answered 200 and well-formed
	chunks   int       // Σ chunks_read
	wallUs   int64     // Σ wall_us over /search and /batch results
	wallN    int       // results that carry wall_us (/multi has none)
	simUs    []float64 // simulated_us per /search and /batch result
	failures []string  // first few failure messages, for the operator
}

func (t *tally) fail(msg string) {
	if len(t.failures) < 5 {
		t.failures = append(t.failures, msg)
	}
}

// client sends a workload's requests to one server and records the
// first answer to each request marked for capture.
type client struct {
	base     string
	hc       *http.Client
	reqs     []request
	capture  []bool // reqs to keep the first answer of
	captured []atomic.Pointer[answer]
	tr       *tracer // nil against the real process
}

// newClient makes a client for w's requests; a nil capture keeps no
// answers.
func newClient(base string, w *workload, capture []bool, tr *tracer) *client {
	if capture == nil {
		capture = make([]bool, len(w.reqs))
	}
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: w.conns,
			MaxConnsPerHost:     w.conns,
		}},
		reqs:     w.reqs,
		capture:  capture,
		captured: make([]atomic.Pointer[answer], len(w.reqs)),
		tr:       tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sender is one connection's worth of client state, reused across
// requests so steady-state decoding allocates little.
type sender struct {
	c      *client
	buf    bytes.Buffer
	search server.SearchResponse
	batch  server.BatchResponse
	multi  server.MultiResponse
	tally  tally
}

// do sends request ri and folds the answer into the sender's tally. It
// returns false for a transport error, a non-200, a malformed body or a
// degraded answer.
func (s *sender) do(ri int) bool {
	r := &s.c.reqs[ri]
	if s.c.tr == nil || !s.c.tr.on.Load() {
		return s.roundTrip(ri, r, 0)
	}
	reqID := s.c.tr.nextReq.Add(1)
	start := time.Now()
	ok := s.roundTrip(ri, r, reqID)
	s.c.tr.add("client.request", reqID, levelClient, r.class, start, time.Now())
	return ok
}

func (s *sender) roundTrip(ri int, r *request, reqID int64) bool {
	hr, err := http.NewRequest(http.MethodPost, s.c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.tally.fail(err.Error())
		return false
	}
	hr.Header.Set("Content-Type", "application/json")
	if reqID != 0 {
		hr.Header.Set(headerRequestID, strconv.FormatInt(reqID, 10))
	}
	resp, err := s.c.hc.Do(hr)
	if err != nil {
		s.tally.fail(err.Error())
		return false
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.tally.fail(err.Error())
		return false
	}
	if resp.StatusCode != http.StatusOK {
		s.tally.fail(fmt.Sprintf("%s: status %d: %.120s", r.path, resp.StatusCode, s.buf.Bytes()))
		return false
	}
	keep := s.c.capture[ri] && s.c.captured[ri].Load() == nil
	ans, err := s.decode(r, keep)
	if err != nil {
		s.tally.fail(fmt.Sprintf("%s: %v", r.path, err))
		return false
	}
	if keep {
		s.c.captured[ri].CompareAndSwap(nil, ans)
	}
	return true
}

// decode parses the body in s.buf, checks its shape and tallies it. With
// keep it decodes into fresh memory and returns the answer; otherwise it
// reuses the sender's scratch and returns nil.
func (s *sender) decode(r *request, keep bool) (*answer, error) {
	switch r.class {
	case classSearch:
		dst := &s.search
		if keep {
			dst = &server.SearchResponse{}
		}
		if err := json.Unmarshal(s.buf.Bytes(), dst); err != nil {
			return nil, err
		}
		if err := s.tallyResult(dst); err != nil {
			return nil, err
		}
		if keep {
			return &answer{results: []server.SearchResponse{*dst}}, nil
		}
	case classBatch:
		dst := &s.batch
		if keep {
			dst = &server.BatchResponse{}
		}
		if err := json.Unmarshal(s.buf.Bytes(), dst); err != nil {
			return nil, err
		}
		if len(dst.Results) != len(r.queries) {
			return nil, fmt.Errorf("batch answered %d of %d queries", len(dst.Results), len(r.queries))
		}
		for i := range dst.Results {
			if err := s.tallyResult(&dst.Results[i]); err != nil {
				return nil, err
			}
		}
		if keep {
			return &answer{results: dst.Results}, nil
		}
	case classStream:
		results, err := s.decodeStream(len(r.queries))
		if err != nil {
			return nil, err
		}
		if keep {
			return &answer{results: results}, nil
		}
	case classMulti:
		dst := &s.multi
		if keep {
			dst = &server.MultiResponse{}
		}
		if err := json.Unmarshal(s.buf.Bytes(), dst); err != nil {
			return nil, err
		}
		if dst.Degraded || dst.Descriptors != len(r.queries) {
			return nil, fmt.Errorf("multi degraded=%v over %d of %d descriptors", dst.Degraded, dst.Descriptors, len(r.queries))
		}
		s.tally.queries += dst.Descriptors
		s.tally.chunks += dst.ChunksRead
		if keep {
			return &answer{multi: dst}, nil
		}
	}
	return nil, nil
}

// decodeStream reads an NDJSON batch to its trailer and returns the
// per-query results in request order.
func (s *sender) decodeStream(n int) ([]server.SearchResponse, error) {
	results := make([]server.SearchResponse, n)
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	done := false
	for sc.Scan() {
		var item server.BatchStreamItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			return nil, err
		}
		if item.Done {
			if item.Error != "" {
				return nil, fmt.Errorf("stream trailer: %s", item.Error)
			}
			done = true
			break
		}
		if item.Result == nil || item.Query < 0 || item.Query >= n {
			return nil, fmt.Errorf("stream line for query %d of %d without a result", item.Query, n)
		}
		if err := s.tallyResult(item.Result); err != nil {
			return nil, err
		}
		results[item.Query] = *item.Result
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done || seen != n {
		return nil, fmt.Errorf("stream ended after %d of %d queries, trailer=%v", seen, n, done)
	}
	return results, nil
}

func (s *sender) tallyResult(r *server.SearchResponse) error {
	if r.Degraded || len(r.Neighbors) != searchK {
		return fmt.Errorf("degraded=%v with %d of %d neighbours", r.Degraded, len(r.Neighbors), searchK)
	}
	t := &s.tally
	t.queries++
	t.chunks += r.ChunksRead
	t.wallUs += r.WallUs
	t.wallN++
	t.simUs = append(t.simUs, float64(r.SimulatedUs))
	return nil
}

// runResult is what one load run produced.
type runResult struct {
	samples  []sample
	tally    tally
	elapsedS float64 // window open to the last response
}

// runClosed cycles through order from conns senders, each sending its
// next request only after the previous answer. It stops after limit
// requests (0 = none) or once window has passed (0 = none).
func (c *client) runClosed(order []int, conns, limit int, window time.Duration) runResult {
	var next atomic.Int64
	start := time.Now()
	return c.run(conns, start, func(s *sender) (sample, bool) {
		i := int(next.Add(1) - 1)
		if (limit > 0 && i >= limit) || (window > 0 && time.Since(start) >= window) {
			return sample{}, false
		}
		ri := order[i%len(order)]
		t0 := time.Now()
		ok := s.do(ri)
		return sample{req: ri, at: t0.Sub(start).Seconds(), ms: msSince(t0), failed: !ok}, true
	})
}

// runOpen sends the schedule's requests at their due times from conns
// senders. Latency runs from the due time, so a request that left late
// because the senders were busy carries that wait.
func (c *client) runOpen(conns int, schedule []arrival) runResult {
	var next atomic.Int64
	start := time.Now()
	return c.run(conns, start, func(s *sender) (sample, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(schedule) {
			return sample{}, false
		}
		a := schedule[i]
		due := start.Add(a.due)
		// Not nanosleep(2), though an idle Go runtime wakes time.Sleep up
		// to 1 ms late: a goroutine in a raw blocking syscall keeps its P
		// until sysmon takes it back, which with two Ps and several
		// senders stalled the connections' read loops for 10-20 ms.
		time.Sleep(time.Until(due))
		late := msSince(due)
		ok := s.do(a.req)
		return sample{req: a.req, at: a.due.Seconds(), ms: msSince(due), lateMs: late, failed: !ok}, true
	})
}

// run drives conns senders with step until each reports it is done, and
// merges what they saw.
func (c *client) run(conns int, start time.Time, step func(*sender) (sample, bool)) runResult {
	senders := make([]*sender, conns)
	perSender := make([][]sample, conns)
	var wg sync.WaitGroup
	for g := range senders {
		senders[g] = &sender{c: c}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				sm, more := step(senders[g])
				if !more {
					return
				}
				perSender[g] = append(perSender[g], sm)
			}
		}(g)
	}
	wg.Wait()
	res := runResult{elapsedS: time.Since(start).Seconds()}
	for g, s := range senders {
		res.samples = append(res.samples, perSender[g]...)
		res.tally.queries += s.tally.queries
		res.tally.chunks += s.tally.chunks
		res.tally.wallUs += s.tally.wallUs
		res.tally.wallN += s.tally.wallN
		res.tally.simUs = append(res.tally.simUs, s.tally.simUs...)
		for _, f := range s.tally.failures {
			res.tally.fail(f)
		}
	}
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
