package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current experiments")

// TestPaperGolden pins the reproduction's output: every section
// cmd/experiment prints, on the lab of `experiment -n 8000 -queries 40`,
// byte for byte against testdata/paper.golden. The tiny lab cannot stand
// in: its k of 10 drops the neighbor counts above 10 that Figures 6 and
// 7 plot (TestSectionsOnTinyLab renders it), and n=4000 fails BAG's
// threshold check. Wall-clock values print through wallf, which the test
// masks, so everything else — every simulated second, recall, chunk
// count and lesson verdict — is pinned.
// -update rewrites the file.
func TestPaperGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N, cfg.Queries = 8000, 40
	lab, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func(f func(string, ...any) string) { wallf = f }(wallf)
	wallf = func(string, ...any) string { return "<wall>" }
	var buf bytes.Buffer
	for _, sec := range Sections {
		if err := sec.Render(lab, &buf); err != nil {
			t.Fatalf("%s: %v", sec.Name, err)
		}
	}
	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("paper output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
