package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro"
)

// BenchmarkHandler times the front door in process: one request per
// iteration through Handler().ServeHTTP into an httptest.ResponseRecorder
// — routing, body decode, admission against a tenant bucket, the search
// and the response encode — on a small real 4-shard index. The bucket
// is on but never empty, so every request is admitted and settled.
// Bodies carry chunk budgets, as the served benchmark's do: /search of
// one query, /batch of 100, /multi of a 20-descriptor bag.
func BenchmarkHandler(b *testing.B) {
	coll := repro.GenerateCollection(8000, 42)
	ix, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 100}, 4)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("main", ix); err != nil {
		b.Fatal(err)
	}
	s := New(reg, Config{TenantRate: 1e12, TenantBurst: 1e12})
	defer ix.Close()

	vecs := func(lo, n int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = coll.Vec(lo + i)
		}
		return out
	}
	for _, bc := range []struct {
		name, route string
		body        any
	}{
		{"search", "search", SearchRequest{Query: coll.Vec(17), K: 30, MaxChunks: 5}},
		{"batch100", "batch", BatchRequest{Queries: vecs(100, 100), K: 30, MaxChunks: 5}},
		{"multi20", "multi", MultiRequest{Descriptors: vecs(300, 20)}},
	} {
		raw, err := json.Marshal(bc.body)
		if err != nil {
			b.Fatal(err)
		}
		url := "/v1/indexes/main/" + bc.route
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest("POST", url, bytes.NewReader(raw)))
				if w.Code != 200 {
					b.Fatalf("%s: %d %s", url, w.Code, w.Body)
				}
			}
		})
	}
}
