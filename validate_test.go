package repro

import (
	"strings"
	"testing"
	"time"
)

// validationIndexes builds a one-shard and a two-shard index over coll.
func validationIndexes(t *testing.T, coll *Collection) []*ShardedIndex {
	t.Helper()
	var out []*ShardedIndex
	for _, shards := range []int{1, 2} {
		sx, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 200}, shards)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sx.Close() })
		out = append(out, sx)
	}
	return out
}

// TestSearchOptionsValidation pins the facade boundary's option
// validation: malformed options are reported as diagnostic errors from
// every search entry point — one shard and several, single, batch, and
// multi-descriptor — instead of being silently clamped.
func TestSearchOptionsValidation(t *testing.T) {
	coll := GenerateCollection(800, 7)
	indexes := validationIndexes(t, coll)
	q := coll.Vec(0)

	bad := []struct {
		name string
		opts SearchOptions
		want string // substring of the error
	}{
		{"negative K", SearchOptions{K: -1}, "K -1 is negative"},
		{"negative MaxChunks", SearchOptions{MaxChunks: -2}, "MaxChunks -2 is negative"},
		{"negative MaxTime", SearchOptions{MaxTime: -time.Second}, "MaxTime -1s is negative"},
		{"conflicting stop rules", SearchOptions{MaxChunks: 3, MaxTime: time.Second}, "conflicting stop rules"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			for _, sx := range indexes {
				entry := []struct {
					name string
					call func() error
				}{
					{"Search", func() error { _, err := sx.Search(q, tc.opts); return err }},
					{"SearchInto", func() error { var r Result; return sx.SearchInto(q, tc.opts, &r) }},
					{"SearchBatchInto", func() error {
						res := make([]Result, 1)
						return sx.SearchBatchInto([]Vector{q}, BatchOptions{SearchOptions: tc.opts}, res)
					}},
				}
				for _, e := range entry {
					err := e.call()
					if err == nil {
						t.Errorf("%d shards %s(%+v) = nil, want error containing %q", sx.Shards(), e.name, tc.opts, tc.want)
						continue
					}
					if !strings.Contains(err.Error(), tc.want) {
						t.Errorf("%d shards %s(%+v) = %q, want substring %q", sx.Shards(), e.name, tc.opts, err, tc.want)
					}
				}
			}
		})
	}

	// Zero values are the documented defaults, not errors.
	for _, sx := range indexes {
		if _, err := sx.Search(q, SearchOptions{}); err != nil {
			t.Errorf("%d shards Search with zero options: %v", sx.Shards(), err)
		}
	}
}

// TestMultiSearchOptionsValidation does the same for the
// multi-descriptor entry point.
func TestMultiSearchOptionsValidation(t *testing.T) {
	coll := GenerateCollection(800, 9)
	indexes := validationIndexes(t, coll)
	ds := []Vector{coll.Vec(0), coll.Vec(1)}

	bad := []struct {
		name string
		opts MultiSearchOptions
		want string
	}{
		{"negative K", MultiSearchOptions{K: -4}, "K -4 is negative"},
		{"negative MaxChunks", MultiSearchOptions{MaxChunks: -1}, "MaxChunks -1 is negative"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			for _, sx := range indexes {
				if _, err := sx.MultiSearch(ds, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%d shards MultiSearch(%+v) = %v, want substring %q", sx.Shards(), tc.opts, err, tc.want)
				}
			}
		})
	}
	for _, sx := range indexes {
		if _, err := sx.MultiSearch(ds, MultiSearchOptions{}); err != nil {
			t.Errorf("%d shards MultiSearch with zero options: %v", sx.Shards(), err)
		}
	}
}
