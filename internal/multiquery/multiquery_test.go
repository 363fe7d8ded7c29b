package multiquery_test

import (
	"math/rand"
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/imagegen"
	. "repro/internal/multiquery"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/srtree"
	"repro/internal/vec"
)

// fixture serves one store through a one-shard router, which runs a bag
// as one batch and votes through Aggregate.
type fixture struct {
	ds     *imagegen.Dataset
	router *shard.Router
}

func setup(t testing.TB) *fixture {
	t.Helper()
	ds := imagegen.MustGenerate(imagegen.DefaultConfig(8000, 13))
	tree, err := srtree.Build(ds.Collection, nil, 200, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := chunkfile.NewMemStore(ds.Collection, tree.Chunks(), 4096)
	r, err := shard.NewRouter([]chunkfile.Store{store}, nil, nil, shard.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, router: r}
}

// imageDescriptors returns the vectors of one source image.
func (f *fixture) imageDescriptors(img uint32) []vec.Vector {
	var out []vec.Vector
	coll := f.ds.Collection
	for i := 0; i < coll.Len(); i++ {
		if coll.IDAt(i).ImageOf() == img {
			out = append(out, coll.Vec(i))
		}
	}
	return out
}

// Querying with an image's own descriptors must rank that image first.
func TestSelfImageRanksFirst(t *testing.T) {
	f := setup(t)
	for _, img := range []uint32{5, 33, 60} {
		qs := f.imageDescriptors(img)
		if len(qs) == 0 {
			t.Fatalf("image %d has no descriptors", img)
		}
		res, err := f.router.MultiQuery(qs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Images) == 0 {
			t.Fatal("no images returned")
		}
		if res.Images[0].Image != img {
			t.Fatalf("image %d ranked %v first instead", img, res.Images[0].Image)
		}
		if res.Descriptors != len(qs) {
			t.Fatalf("descriptors = %d, want %d", res.Descriptors, len(qs))
		}
	}
}

// A perturbed copy (the copyright scenario) must still rank its source
// image first.
func TestPerturbedCopyFound(t *testing.T) {
	f := setup(t)
	const img = 21
	r := rand.New(rand.NewSource(2))
	var qs []vec.Vector
	for _, v := range f.imageDescriptors(img) {
		p := v.Clone()
		for d := range p {
			p[d] += float32(r.NormFloat64() * 0.5)
		}
		qs = append(qs, p)
	}
	res, err := f.router.MultiQuery(qs, Options{RankWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Images[0].Image != img {
		t.Fatalf("perturbed copy of %d ranked %v first", img, res.Images[0].Image)
	}
}

func TestScoresDescendAndMinVotes(t *testing.T) {
	f := setup(t)
	qs := f.imageDescriptors(8)
	res, err := f.router.MultiQuery(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Images); i++ {
		if res.Images[i].Score > res.Images[i-1].Score {
			t.Fatalf("scores not descending at %d", i)
		}
	}
	top := res.Images[0].Score
	filtered, err := f.router.MultiQuery(qs, Options{MinVotes: top})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Images) >= len(res.Images) {
		t.Fatalf("MinVotes did not filter: %d vs %d", len(filtered.Images), len(res.Images))
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	f := setup(t)
	if _, err := f.router.MultiQuery(nil, Options{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestBudgetAccounting(t *testing.T) {
	f := setup(t)
	qs := f.imageDescriptors(12)[:4]
	res, err := f.router.MultiQuery(qs, Options{Stop: search.ChunkBudget(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRead != 2*len(qs) {
		t.Fatalf("ChunksRead = %d, want %d", res.ChunksRead, 2*len(qs))
	}
	if res.Simulated <= 0 {
		t.Fatal("no simulated time accumulated")
	}
}

func BenchmarkMultiQuery(b *testing.B) {
	f := setup(b)
	qs := f.imageDescriptors(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.router.MultiQuery(qs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
