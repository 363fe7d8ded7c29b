package search_test

import (
	"math"
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	"repro/internal/scan"
	. "repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/srtree"
	"repro/internal/vafile"
)

// Three independently implemented exact searches — chunk search to
// completion, the sequential scan, and the two-phase VA-File — must
// agree on every query. Any pairwise disagreement localizes a bug to one
// implementation.
func TestThreeWayExactCrossCheck(t *testing.T) {
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(5000, 17))
	coll := ds.Collection

	chunks, err := srtree.Chunks(coll, nil, 150)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(coll, chunks, 4096)
	chunkSearch := batchexec.New(store, nil)

	va, err := vafile.Build(coll, 5)
	if err != nil {
		t.Fatal(err)
	}

	const k = 25
	for _, qi := range []int{0, 9, 500, 1234, 4000} {
		q := coll.Vec(qi)

		a, err := searchOne(chunkSearch, q, batchexec.Options{K: k, Stop: ToCompletion{}})
		if err != nil {
			t.Fatal(err)
		}
		b := scan.KNN(coll, q, k)
		c, _, err := va.Search(q, k, vafile.Options{})
		if err != nil {
			t.Fatal(err)
		}

		if len(a.Neighbors) != k || len(b) != k || len(c) != k {
			t.Fatalf("q%d: result sizes %d/%d/%d", qi, len(a.Neighbors), len(b), len(c))
		}
		for i := 0; i < k; i++ {
			if math.Abs(a.Neighbors[i].Dist-b[i].Dist) > 1e-9 {
				t.Fatalf("q%d rank %d: chunk search %v vs scan %v", qi, i, a.Neighbors[i].Dist, b[i].Dist)
			}
			if math.Abs(a.Neighbors[i].Dist-c[i].Dist) > 1e-9 {
				t.Fatalf("q%d rank %d: chunk search %v vs va-file %v", qi, i, a.Neighbors[i].Dist, c[i].Dist)
			}
		}
	}
}
