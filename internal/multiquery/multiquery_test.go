package multiquery_test

import (
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/descriptor"
	"repro/internal/knn"
	. "repro/internal/multiquery"
	"repro/internal/search"
)

// hits builds one descriptor's search result whose neighbors, in rank
// order, belong to the given images (ordinal i of its image).
func hits(images ...uint32) search.Result {
	var r search.Result
	for i, img := range images {
		id := descriptor.ID(img<<descriptor.DescriptorsPerImageShift | uint32(i))
		r.Neighbors = append(r.Neighbors, knn.Neighbor{ID: id, Dist: float64(i)})
	}
	return r
}

// A bag whose every descriptor finds its own image first ranks that
// image first, with one vote per descriptor.
func TestSelfImageRanksFirst(t *testing.T) {
	bag := []search.Result{hits(5, 9, 2), hits(5, 5, 9), hits(5, 2), hits(7, 5)}
	res := Aggregate(bag, false)
	if res.Descriptors != len(bag) {
		t.Fatalf("descriptors = %d, want %d", res.Descriptors, len(bag))
	}
	// Image 5 matches every descriptor once, however often a descriptor's
	// neighbors repeat it.
	want := []ImageScore{{Image: 5, Score: 4, Matches: 4}, {Image: 2, Score: 2, Matches: 2}, {Image: 9, Score: 2, Matches: 2}, {Image: 7, Score: 1, Matches: 1}}
	if !slices.Equal(res.Images, want) {
		t.Fatalf("images = %+v, want %+v", res.Images, want)
	}
}

// A perturbed copy (the copyright scenario) matches its source closely
// where it matches at all, while a distractor collects more, weaker
// matches: rank weighting ranks the source first where a plain count
// ranks the distractor first.
func TestPerturbedCopyFound(t *testing.T) {
	bag := []search.Result{hits(21, 3), hits(21, 3), hits(7, 3)}
	if plain := Aggregate(bag, false); plain.Images[0] != (ImageScore{Image: 3, Score: 3, Matches: 3}) {
		t.Fatalf("plain votes = %+v, want the distractor 3 first", plain.Images)
	}
	res := Aggregate(bag, true)
	if res.Images[0] != (ImageScore{Image: 21, Score: 2, Matches: 2}) || res.Images[1].Score != 1.5 {
		t.Fatalf("rank-weighted votes = %+v, want 21 (2) over 3 (1.5)", res.Images)
	}
}

// Scores descend, ties break by ascending image, and an empty bag votes
// for nothing.
func TestScoresDescend(t *testing.T) {
	res := Aggregate([]search.Result{hits(8, 4, 6), hits(6, 4), hits(4, 1)}, true)
	for i := 1; i < len(res.Images); i++ {
		a, b := res.Images[i-1], res.Images[i]
		if b.Score > a.Score || (b.Score == a.Score && b.Image < a.Image) {
			t.Fatalf("images out of order at %d: %+v", i, res.Images)
		}
	}
	if empty := Aggregate(nil, false); empty.Descriptors != 0 || len(empty.Images) != 0 {
		t.Fatalf("empty bag = %+v", empty)
	}
}

// A query image with no descriptors is refused at the facade rather
// than answered with an empty vote, on one shard and several.
func TestEmptyQueryRejected(t *testing.T) {
	coll := repro.GenerateCollection(400, 3)
	for _, shards := range []int{1, 2} {
		sx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 100}, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer sx.Close()
		for _, bag := range [][]repro.Vector{nil, {}} {
			if res, err := sx.MultiSearch(bag, repro.MultiSearchOptions{}); err == nil {
				t.Fatalf("%d shards: empty query accepted: %+v", shards, res)
			}
		}
	}
}

// The totals are sums over the bag's searches, and one degraded
// descriptor degrades the bag.
func TestBudgetAccounting(t *testing.T) {
	bag := []search.Result{hits(1), hits(2), hits(1)}
	for i := range bag {
		bag[i].ChunksRead, bag[i].Simulated = 2, time.Duration(i+1)*time.Millisecond
	}
	bag[1].ChunksSkipped, bag[1].Degraded = 1, true
	res := Aggregate(bag, false)
	if res.ChunksRead != 6 || res.Simulated != 6*time.Millisecond || res.ChunksSkipped != 1 || !res.Degraded {
		t.Fatalf("totals = %+v, want 6 chunks, 6ms, 1 skipped, degraded", res)
	}
}
