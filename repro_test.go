package repro

import (
	"path/filepath"
	"testing"
)

func testCollection(t testing.TB) *Collection {
	t.Helper()
	return GenerateCollection(5000, 7)
}

func TestBuildAllStrategies(t *testing.T) {
	coll := testCollection(t)
	for _, s := range []Strategy{StrategySRTree, StrategyRoundRobin, StrategyHybrid} {
		idx, err := BuildSharded(coll, BuildConfig{Strategy: s, ChunkSize: 200, Seed: 1}, 1)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if idx.Len() != coll.Len() {
			t.Fatalf("%s: index covers %d of %d", s, idx.Len(), coll.Len())
		}
		if idx.Chunks() < 2 {
			t.Fatalf("%s: only %d chunks", s, idx.Chunks())
		}
	}
}

func TestBuildBAGRemovesOutliers(t *testing.T) {
	coll := testCollection(t)
	idx, err := BuildSharded(coll, BuildConfig{Strategy: StrategyBAG, ChunkSize: 150, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Outliers) == 0 {
		t.Fatal("BAG discarded no outliers on skewed synthetic data")
	}
	if idx.Len()+len(idx.Outliers) != coll.Len() {
		t.Fatalf("retained %d + outliers %d != %d", idx.Len(), len(idx.Outliers), coll.Len())
	}
}

func TestBuildValidation(t *testing.T) {
	coll := testCollection(t)
	if _, err := BuildSharded(coll, BuildConfig{Strategy: StrategySRTree, ChunkSize: 0}, 1); err == nil {
		t.Fatal("ChunkSize 0 accepted")
	}
	if _, err := BuildSharded(coll, BuildConfig{Strategy: "nope", ChunkSize: 10}, 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestCollectionFileRoundTrip(t *testing.T) {
	coll := testCollection(t)
	path := filepath.Join(t.TempDir(), "c.desc")
	if err := SaveCollection(coll, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCollection(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != coll.Len() {
		t.Fatalf("loaded %d, want %d", got.Len(), coll.Len())
	}
}

func TestWorkloadHelpers(t *testing.T) {
	coll := testCollection(t)
	dq, err := DatasetQueries(coll, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := SpaceQueries(coll, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dq) != 5 || len(sq) != 5 {
		t.Fatalf("workload sizes %d/%d", len(dq), len(sq))
	}
}

func TestPrecisionEdges(t *testing.T) {
	if Precision(nil, nil) != 0 {
		t.Fatal("empty truth should be 0")
	}
	ns := []Neighbor{{ID: 1}, {ID: 2}}
	if Precision(ns, ns) != 1 {
		t.Fatal("identical lists should be 1")
	}
}
