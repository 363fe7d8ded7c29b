package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzRoutes are the request routes FuzzServeRequest drives, picked by
// the fuzzed route byte.
var fuzzRoutes = []string{"search", "batch", "multi"}

// FuzzServeRequest drives the server's handler over a small one-shard
// index with tenant limiting on, fuzzing the route, the body and the
// X-Deadline-Ms header. Whatever arrives, nothing panics and nothing
// answers 500; every non-200 is a JSON ErrorResponse with a 4xx or 503
// status; and every 200 decodes into its route's response type (a
// streamed batch line by line).
func FuzzServeRequest(f *testing.F) {
	ix, coll := buildTestIndex(f, 600)
	f.Cleanup(func() { ix.Close() })
	reg := NewRegistry()
	if err := reg.Add("main", ix); err != nil {
		f.Fatal(err)
	}
	s := New(reg, Config{TenantRate: 1e6, TenantBurst: 1e6})
	h := s.Handler()

	q, err := json.Marshal(coll.Vec(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte(fmt.Sprintf(`{"query":%s,"k":5,"max_chunks":2}`, q)), "")
	f.Add(uint8(0), []byte(fmt.Sprintf(`{"query":%s,"max_time_us":3000,"global_budget":true}`, q)), "50")
	f.Add(uint8(1), []byte(fmt.Sprintf(`{"queries":[%s,%s],"max_chunks":%d}`, q, q, int64(1)<<62)), "")
	f.Add(uint8(1), []byte(fmt.Sprintf(`{"queries":[%s,%s],"k":3,"max_chunks":%d}`, q, q, math.MaxInt)), "")
	f.Add(uint8(1), []byte(fmt.Sprintf(`{"queries":[%s],"stream":true,"parallelism":2}`, q)), "1000")
	f.Add(uint8(2), []byte(fmt.Sprintf(`{"descriptors":[%s,%s],"max_chunks":%d}`, q, q, math.MaxInt)), "")
	f.Add(uint8(2), []byte(`{"descriptors":[[1,2,3]]}`), "-4")
	f.Add(uint8(0), []byte(`{"query":[],"k":-1}`), "x")

	f.Fuzz(func(t *testing.T, route uint8, body []byte, deadline string) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest("POST", "/v1/indexes/main/"+path, bytes.NewReader(body))
		if deadline != "" {
			req.Header.Set(HeaderDeadlineMs, deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		raw := rec.Body.Bytes()
		switch code := rec.Code; {
		case code == http.StatusOK:
			if err := decodeOK(path, rec.Header().Get("Content-Type"), raw); err != nil {
				t.Fatalf("%s 200 body does not decode: %v\n%s", path, err, raw)
			}
		case code >= 400 && code < 500 || code == http.StatusServiceUnavailable:
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %d body is not an ErrorResponse (%v):\n%s", path, code, err, raw)
			}
		default:
			t.Fatalf("%s answered %d:\n%s", path, code, raw)
		}
	})
}

// decodeOK strictly decodes a 200 body of route path into its response
// type: NDJSON BatchStreamItem lines ending in a trailer for a streamed
// batch.
func decodeOK(path, contentType string, raw []byte) error {
	strict := func(b []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	switch {
	case path == "search":
		return strict(raw, &SearchResponse{})
	case path == "multi":
		return strict(raw, &MultiResponse{})
	case contentType != "application/x-ndjson":
		return strict(raw, &BatchResponse{})
	}
	var item BatchStreamItem
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, len(raw)+1)
	for sc.Scan() {
		item = BatchStreamItem{}
		if err := strict(sc.Bytes(), &item); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !item.Done {
		return fmt.Errorf("stream ends without a trailer")
	}
	return nil
}
