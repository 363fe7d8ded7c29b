package server

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite the wire transcripts under testdata/ from the current server")

// exchange is one request of a wire transcript: which server answers it
// ("open", "tight" or "best", see goldenServers), the route under
// /v1/indexes/, the body (marshaled as JSON) and any headers.
type exchange struct {
	name    string
	server  string
	path    string
	body    any
	headers map[string]string
}

// goldenServers serves a one-shard index "main" and a two-shard index
// "two" over one 2000-descriptor collection behind three admission
// setups: "open" (no limits), "tight" (a 4-chunk bucket that never
// refills) and "best" (the same bucket with best-effort shrinking).
func goldenServers(t *testing.T) (map[string]string, *repro.Collection) {
	one, coll := buildTestIndex(t, 2000)
	two, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 250}, 2)
	if err != nil {
		t.Fatal(err)
	}
	frozen := newFakeClock().now
	urls := map[string]string{}
	for name, cfg := range map[string]Config{
		"open":  {},
		"tight": {TenantRate: 0.001, TenantBurst: 4, Clock: frozen},
		"best":  {TenantRate: 0.001, TenantBurst: 4, BestEffort: true, Clock: frozen},
	} {
		ts, _ := serveTest(t, cfg, map[string]Backend{"main": one, "two": two})
		urls[name] = ts.URL
	}
	return urls, coll
}

// wallUs masks the one nondeterministic field of a 200 body.
var wallUs = regexp.MustCompile(`"wall_us":\d+`)

// replayGolden sends the exchanges in order and checks each response's
// status, Content-Type, Retry-After and body (wall_us masked) against
// testdata/<file>; with -update it rewrites the file instead.
func replayGolden(t *testing.T, file string, cases func(v func(int) []float32) []exchange) {
	urls, coll := goldenServers(t)
	path := filepath.Join("testdata", file)
	want := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range strings.Split(string(raw), "### ")[1:] {
			name, rest, _ := strings.Cut(block, "\n")
			want[name] = rest
		}
	}
	var out strings.Builder
	for _, c := range cases(func(i int) []float32 { return coll.Vec(i) }) {
		resp, raw := doJSON(t, "POST", urls[c.server]+"/v1/indexes/"+c.path, c.body, c.headers)
		got := fmt.Sprintf("%s POST %s\n%d %s retry-after=%s\n%s", c.server, c.path, resp.StatusCode,
			resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), wallUs.ReplaceAllString(string(raw), `"wall_us":"*"`))
		fmt.Fprintf(&out, "### %s\n%s", c.name, got)
		if !*update {
			t.Run(c.name, func(t *testing.T) {
				if w, ok := want[c.name]; !ok || got != w {
					t.Fatalf("wire transcript differs\n got: %s\nwant: %s", got, w)
				}
			})
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireGolden pins every search route's 200 body and every admission
// refusal byte for byte: the chunk, time and global budgets, buffered
// and streamed batches (streamed at parallelism 1, so line order is
// fixed), plain and rank-weighted multi, and 429s with their
// Retry-After with and without best-effort shrinking.
func TestWireGolden(t *testing.T) {
	replayGolden(t, "wire_ok.golden", func(v func(int) []float32) []exchange {
		vs := func(lo, hi int) (out [][]float32) {
			for i := lo; i < hi; i++ {
				out = append(out, v(i))
			}
			return out
		}
		as := func(tenant string) map[string]string { return map[string]string{HeaderTenant: tenant} }
		return []exchange{
			{"search chunk budget", "open", "main/search", SearchRequest{Query: v(17), K: 5, MaxChunks: 3}, nil},
			{"search time budget", "open", "main/search", SearchRequest{Query: v(18), K: 5, MaxTimeUs: 40000}, nil},
			{"search to completion", "open", "main/search", SearchRequest{Query: v(19), K: 3}, nil},
			{"search default k overlap", "open", "main/search", SearchRequest{Query: v(20), MaxChunks: 1, Overlap: true}, nil},
			{"search per-shard budget", "open", "two/search", SearchRequest{Query: v(21), K: 5, MaxChunks: 2}, nil},
			{"search global budget", "open", "two/search", SearchRequest{Query: v(21), K: 5, MaxChunks: 2, GlobalBudget: true}, nil},
			{"batch buffered", "open", "main/batch", BatchRequest{Queries: vs(1, 4), K: 4, MaxChunks: 2}, nil},
			{"batch buffered time budget", "open", "main/batch", BatchRequest{Queries: vs(4, 6), K: 3, MaxTimeUs: 30000, Overlap: true}, nil},
			{"batch buffered global budget", "open", "two/batch", BatchRequest{Queries: vs(6, 9), K: 4, MaxChunks: 3, GlobalBudget: true}, nil},
			{"batch streamed", "open", "main/batch", BatchRequest{Queries: vs(9, 13), K: 4, MaxChunks: 2, Parallelism: 1, Stream: true}, nil},
			{"batch streamed global budget", "open", "two/batch", BatchRequest{Queries: vs(13, 16), K: 3, MaxChunks: 2, GlobalBudget: true, Parallelism: 1, Stream: true}, nil},
			{"multi plain", "open", "main/multi", MultiRequest{Descriptors: vs(40, 45)}, nil},
			{"multi rank weighted", "open", "main/multi", MultiRequest{Descriptors: vs(40, 45), K: 6, MaxChunks: 2, RankWeighted: true}, nil},
			{"multi global budget", "open", "two/multi", MultiRequest{Descriptors: vs(50, 54), GlobalBudget: true, Overlap: true}, nil},
			{"tight search over budget", "tight", "main/search", SearchRequest{Query: v(1), MaxChunks: 5}, nil},
			{"tight search admitted", "tight", "main/search", SearchRequest{Query: v(1), K: 3, MaxChunks: 2}, nil},
			{"tight batch over budget", "tight", "main/batch", BatchRequest{Queries: vs(1, 3), MaxChunks: 2}, nil},
			{"tight multi over budget", "tight", "main/multi", MultiRequest{Descriptors: vs(1, 2)}, nil},
			{"tight timed search", "tight", "main/search", SearchRequest{Query: v(1), MaxTimeUs: 1000}, nil},
			{"tight timed search over the burst", "tight", "main/search", SearchRequest{Query: v(1), MaxTimeUs: 100000}, nil},
			{"tight other tenant", "tight", "main/search", SearchRequest{Query: v(1), K: 3, MaxChunks: 2}, as("bob")},
			{"best search shrunk", "best", "main/search", SearchRequest{Query: v(2), K: 4, MaxChunks: 6}, as("s")},
			{"best batch shrunk", "best", "main/batch", BatchRequest{Queries: vs(2, 5), K: 4, MaxChunks: 3}, as("b")},
			{"best stream shrunk", "best", "main/batch", BatchRequest{Queries: vs(5, 7), K: 4, MaxChunks: 4, Parallelism: 1, Stream: true}, as("t")},
			{"best multi shrunk", "best", "main/multi", MultiRequest{Descriptors: vs(7, 10)}, as("m")},
			{"best batch too poor to shrink", "best", "main/batch", BatchRequest{Queries: vs(2, 7), MaxChunks: 2}, as("z")},
			{"best timed search sheds", "best", "main/search", SearchRequest{Query: v(2), MaxTimeUs: 2000}, as("z")},
			{"best drained tenant sheds", "best", "main/search", SearchRequest{Query: v(2), MaxChunks: 2}, as("s")},
		}
	})
}

// TestBadRequests pins every 400 and 404 the search routes answer —
// status and diagnostic, in the order the checks run — against the wire
// transcript.
func TestBadRequests(t *testing.T) {
	replayGolden(t, "wire_bad.golden", func(v func(int) []float32) []exchange {
		q := v(0)
		return []exchange{
			{"negative k", "open", "main/search", SearchRequest{Query: q, K: -1}, nil},
			{"negative max_chunks", "open", "main/search", SearchRequest{Query: q, MaxChunks: -2}, nil},
			{"negative max_time_us", "open", "main/search", SearchRequest{Query: q, MaxTimeUs: -3}, nil},
			{"conflicting stop rules", "open", "main/search", SearchRequest{Query: q, MaxChunks: 3, MaxTimeUs: 500}, nil},
			{"wrong dims", "open", "main/search", SearchRequest{Query: []float32{1, 2, 3}}, nil},
			{"missing query", "open", "main/search", SearchRequest{K: 3}, nil},
			{"stop rules before dims", "open", "main/search", SearchRequest{Query: []float32{1}, K: -1}, nil},
			{"unknown field", "open", "main/search", map[string]any{"query": q, "kk": 3}, nil},
			{"not json", "open", "main/search", "not an object", nil},
			{"empty batch", "open", "main/batch", BatchRequest{}, nil},
			{"batch bad vector", "open", "main/batch", BatchRequest{Queries: [][]float32{{1}}}, nil},
			{"batch second vector bad", "open", "main/batch", BatchRequest{Queries: [][]float32{q, {1, 2}}}, nil},
			{"batch negative k", "open", "main/batch", BatchRequest{Queries: [][]float32{q}, K: -1}, nil},
			{"batch conflicting stop rules", "open", "main/batch", BatchRequest{Queries: [][]float32{q}, MaxChunks: 1, MaxTimeUs: 1}, nil},
			{"batch stop rules before empty", "open", "main/batch", BatchRequest{MaxChunks: -1}, nil},
			{"batch unknown field", "open", "main/batch", map[string]any{"queries": [][]float32{q}, "query": q}, nil},
			{"batch not json", "open", "main/batch", "not an object", nil},
			{"empty multi", "open", "main/multi", MultiRequest{}, nil},
			{"multi bad vector", "open", "main/multi", MultiRequest{Descriptors: [][]float32{q, {1, 2}}}, nil},
			{"multi negative k", "open", "main/multi", MultiRequest{Descriptors: [][]float32{q}, K: -2}, nil},
			{"multi negative max_chunks", "open", "main/multi", MultiRequest{Descriptors: [][]float32{q}, MaxChunks: -1}, nil},
			{"multi unknown field", "open", "main/multi", map[string]any{"descriptors": [][]float32{q}, "max_time_us": 5}, nil},
			{"multi not json", "open", "main/multi", "not an object", nil},
			{"bad deadline header", "open", "main/search", SearchRequest{Query: q}, map[string]string{HeaderDeadlineMs: "soon"}},
			{"zero deadline header", "open", "main/search", SearchRequest{Query: q}, map[string]string{HeaderDeadlineMs: "0"}},
			{"batch bad deadline header", "open", "main/batch", BatchRequest{Queries: [][]float32{q}}, map[string]string{HeaderDeadlineMs: "-5"}},
			{"multi bad deadline header", "open", "main/multi", MultiRequest{Descriptors: [][]float32{q}}, map[string]string{HeaderDeadlineMs: "1.5"}},
			{"unknown index", "open", "nope/search", SearchRequest{Query: q}, nil},
			{"unknown index batch", "open", "nope/batch", BatchRequest{}, nil},
			{"unknown index multi", "open", "nope/multi", "not an object", nil},
			{"bad request before admission", "tight", "main/batch", BatchRequest{Queries: [][]float32{q, {1}}, MaxChunks: 100}, nil},
		}
	})
}
