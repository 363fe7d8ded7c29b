package main

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// TestRunWritesOpenableIndex pins the command end to end: the directory
// chunkbuild writes from a collection file opens with repro.OpenSharded
// and answers byte-identically (neighbours, ChunksRead, Simulated,
// Exact; Wall aside) to BuildSharded on the same collection, under a
// chunk budget and to completion, with a CPU profile written alongside.
func TestRunWritesOpenableIndex(t *testing.T) {
	dir := t.TempDir()
	coll := repro.GenerateCollection(3000, 17)
	collPath := filepath.Join(dir, "coll.desc")
	if err := repro.SaveCollection(coll, collPath); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "index")
	var stdout bytes.Buffer
	args := []string{"-coll", collPath, "-strategy", "srtree", "-size", "150", "-out", out, "-cpuprofile", filepath.Join(dir, "build.prof")}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Fatalf("summary %q names no output directory", stdout.String())
	}

	fx, err := repro.OpenSharded(out)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	sx, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 150, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	if fx.Chunks() != sx.Chunks() || fx.Len() != sx.Len() {
		t.Fatalf("written index has %d chunks over %d descriptors, built %d over %d", fx.Chunks(), fx.Len(), sx.Chunks(), sx.Len())
	}
	queries, err := repro.DatasetQueries(coll, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []repro.SearchOptions{{K: 10, MaxChunks: 3}, {K: 10}} {
		for qi, q := range queries {
			got, err := fx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sx.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got.Wall, want.Wall = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d %+v: written index answers %+v, built %+v", qi, opts, got, want)
			}
		}
	}
}

// TestRunErrors pins the error paths: a missing collection, an unknown
// strategy and a bad flag return an error instead of exiting.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	collPath := filepath.Join(dir, "coll.desc")
	if err := repro.SaveCollection(repro.GenerateCollection(200, 5), collPath); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"missing collection", []string{"-coll", filepath.Join(dir, "none.desc"), "-out", filepath.Join(dir, "a")}, "no such file"},
		{"unknown strategy", []string{"-coll", collPath, "-strategy", "bogus", "-out", filepath.Join(dir, "b")}, `unknown strategy "bogus"`},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
