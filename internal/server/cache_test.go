package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro"
)

// TestMetricsReportCacheCounters pins the cache plumbing: an
// index opened with a decoded-chunk cache surfaces its hit/miss/byte
// counters in /metrics, and a cacheless index omits the cache block
// entirely rather than reporting zeros.
func TestMetricsReportCacheCounters(t *testing.T) {
	coll := repro.GenerateCollection(2000, 42)
	built, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 250}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	cached, err := repro.OpenShardedWith(dir, repro.OpenConfig{CacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := buildTestIndex(t, 2000)
	ts, _ := serveTest(t, Config{}, map[string]Backend{"hot": cached, "cold": plain})

	// Two identical searches per index: the cached one sees misses then
	// hits, the plain one stays cacheless.
	for i := 0; i < 2; i++ {
		for _, name := range []string{"hot", "cold"} {
			resp, raw := doJSON(t, "POST", ts.URL+"/v1/indexes/"+name+"/search",
				SearchRequest{Query: coll.Vec(17), K: 5, MaxChunks: 3}, nil)
			if resp.StatusCode != 200 {
				t.Fatalf("%s search: %d: %s", name, resp.StatusCode, raw)
			}
		}
	}

	resp, raw := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	byName := map[string]IndexSnapshot{}
	for _, is := range snap.Indexes {
		byName[is.Name] = is
	}
	hot, ok := byName["hot"]
	if !ok || hot.Cache == nil {
		t.Fatalf("cached index missing cache block: %+v", snap.Indexes)
	}
	if hot.Cache.Hits == 0 || hot.Cache.Misses == 0 || hot.Cache.Bytes <= 0 || hot.Cache.MaxBytes != 16<<20 {
		t.Fatalf("cache counters %+v, want hits, misses, bytes, and the configured budget", hot.Cache)
	}
	if cold, ok := byName["cold"]; !ok || cold.Cache != nil {
		t.Fatalf("cacheless index reports a cache block: %+v", cold.Cache)
	}

	// The raw JSON omits the block for the cacheless index.
	if got := bytes.Count(raw, []byte(`"cache":`)); got != 1 {
		t.Fatalf("%d cache blocks in metrics JSON, want exactly 1: %s", got, raw)
	}
}
