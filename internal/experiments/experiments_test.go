package experiments

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// tinyConfig keeps the full experiment pipeline fast enough for unit
// testing while preserving every code path.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 6000
	cfg.Queries = 8
	cfg.K = 10
	cfg.TargetSizes = []int{100, 200}
	cfg.Names = []string{"SMALL", "LARGE"}
	return cfg
}

var (
	tinyOnce sync.Once
	tinyLab  *Lab
	tinyErr  error
)

func getLab(t testing.TB) *Lab {
	tinyOnce.Do(func() {
		tinyLab, tinyErr = NewLab(tinyConfig())
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyLab
}

func TestNewLabShape(t *testing.T) {
	lab := getLab(t)
	if len(lab.Grans) != 2 {
		t.Fatalf("granularities = %d", len(lab.Grans))
	}
	for _, g := range lab.Grans {
		if len(g.BagChunks) == 0 || len(g.SRChunks) == 0 {
			t.Fatalf("%s: missing chunks", g.Name)
		}
		if g.Retained.Len() != len(g.RetainedIdx) {
			t.Fatalf("%s: retained mismatch", g.Name)
		}
		if g.SRLeafCap < 1 {
			t.Fatalf("%s: leaf cap %d", g.Name, g.SRLeafCap)
		}
		// Retained set + outliers = collection.
		if g.Retained.Len()+len(g.Snap.Outliers) != lab.Coll.Len() {
			t.Fatalf("%s: retained %d + outliers %d != %d",
				g.Name, g.Retained.Len(), len(g.Snap.Outliers), lab.Coll.Len())
		}
	}
	if len(lab.DQ) != 8 || len(lab.SQ) != 8 {
		t.Fatalf("workload sizes %d/%d", len(lab.DQ), len(lab.SQ))
	}
}

func TestNewLabValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.TargetSizes = []int{200, 100}
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("descending target sizes accepted")
	}
	cfg = tinyConfig()
	cfg.Names = []string{"ONLY"}
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("mismatched names accepted")
	}
}

func TestTable1(t *testing.T) {
	lab := getLab(t)
	res := Table1(lab)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Retained <= 0 || row.BagChunks <= 0 || row.SRChunks <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.OutlierPct < 0 || row.OutlierPct > 50 {
			t.Fatalf("outlier pct %v", row.OutlierPct)
		}
		// The SR chunk count must be close to the BAG chunk count since
		// the leaf capacity matches the BAG mean (Table 1's key property).
		ratio := float64(row.SRChunks) / float64(row.BagChunks)
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("SR chunks %d vs BAG chunks %d", row.SRChunks, row.BagChunks)
		}
	}
	// Coarser granularity ⇒ fewer chunks.
	if res.Rows[1].BagChunks >= res.Rows[0].BagChunks {
		t.Fatalf("chunk counts not decreasing: %d -> %d", res.Rows[0].BagChunks, res.Rows[1].BagChunks)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestFigure1(t *testing.T) {
	lab := getLab(t)
	res := Figure1(lab, 10)
	if len(res.Order) != 4 {
		t.Fatalf("series = %d", len(res.Order))
	}
	for name, ys := range res.Series {
		for i := 1; i < len(ys); i++ {
			if ys[i] > ys[i-1] {
				t.Fatalf("%s: sizes not descending", name)
			}
		}
	}
	// BAG's largest chunk should exceed SR's largest (uniform) chunk.
	if res.Series["BAG / SMALL"][0] <= res.Series["SR / SMALL"][0] {
		t.Fatalf("BAG largest %v <= SR largest %v",
			res.Series["BAG / SMALL"][0], res.Series["SR / SMALL"][0])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFigure23And45(t *testing.T) {
	lab := getLab(t)
	for _, wl := range []string{"DQ", "SQ"} {
		chunks, err := Figure23(lab, wl)
		if err != nil {
			t.Fatal(err)
		}
		times, err := Figure45(lab, wl)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks.Order) != 4 || len(times.Order) != 4 {
			t.Fatalf("%s: series %d/%d", wl, len(chunks.Order), len(times.Order))
		}
		for name, ys := range chunks.Series {
			prev := 0.0
			for i, y := range ys {
				if math.IsNaN(y) {
					continue
				}
				if y < prev {
					t.Fatalf("%s %s: chunks-to-find not monotone at %d", wl, name, i)
				}
				prev = y
			}
		}
	}
	bad, err := Figure23(lab, "XX")
	if err == nil || bad != nil {
		t.Fatal("unknown workload accepted")
	}
}

// The paper's headline DQ results: BAG needs fewer chunks than SR for the
// same neighbor count (Figure 2).
func TestFigure2BagNeedsFewerChunks(t *testing.T) {
	lab := getLab(t)
	res, err := Figure23(lab, "DQ")
	if err != nil {
		t.Fatal(err)
	}
	name := lab.Grans[0].Name
	bagC := res.Series["BAG / "+name]
	srC := res.Series["SR / "+name]
	mid := lab.Cfg.K / 2
	if math.IsNaN(bagC[mid]) || math.IsNaN(srC[mid]) {
		t.Skip("mid-curve NaN at tiny scale")
	}
	if bagC[mid] > srC[mid]*1.5 {
		t.Fatalf("BAG chunks %v ≫ SR chunks %v at n=%d: paper's Figure 2 inverted", bagC[mid], srC[mid], mid+1)
	}
}

func TestTable2(t *testing.T) {
	lab := getLab(t)
	res, err := Table2(lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Grans {
		for _, st := range []string{"BAG", "SR"} {
			for _, wl := range []string{"DQ", "SQ"} {
				if res.Seconds[g][st][wl] <= 0 {
					t.Fatalf("%s/%s/%s: nonpositive time", g, st, wl)
				}
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestFigure67(t *testing.T) {
	lab := getLab(t)
	sizes := []int{50, 200, 800}
	res, err := Figure67(lab, "DQ", sizes, []int{1, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChunkSizes) != 3 || len(res.Order) != 3 {
		t.Fatalf("shape %d/%d", len(res.ChunkSizes), len(res.Order))
	}
	for name, ys := range res.Series {
		if len(ys) != 3 {
			t.Fatalf("%s: %d points", name, len(ys))
		}
	}
	if _, err := Figure67(lab, "DQ", sizes, []int{lab.Cfg.K + 1}); err == nil {
		t.Fatalf("neighbor count %d > k=%d accepted", lab.Cfg.K+1, lab.Cfg.K)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestChunkSizeSweep(t *testing.T) {
	sw := ChunkSizeSweep(16, 100, 100000, 10000000)
	if len(sw) != 16 || sw[0] != 100 || sw[15] != 100000 {
		t.Fatalf("sweep = %v", sw)
	}
	for i := 1; i < len(sw); i++ {
		if sw[i] <= sw[i-1] {
			t.Fatalf("sweep not increasing: %v", sw)
		}
	}
	clipped := ChunkSizeSweep(5, 100, 100000, 1000)
	for _, s := range clipped {
		if s > 500 {
			t.Fatalf("sweep not clipped: %v", clipped)
		}
	}
}

func TestBuildTime(t *testing.T) {
	lab := getLab(t)
	res := BuildTime(lab)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SRBuild <= 0 || row.BagBuild <= 0 {
			t.Fatalf("missing build times: %+v", row)
		}
		// The paper's asymmetry: BAG is far slower to build than SR.
		if row.BagBuild < row.SRBuild {
			t.Fatalf("%s: BAG build %v faster than SR %v", row.Name, row.BagBuild, row.SRBuild)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationOverlap(t *testing.T) {
	lab := getLab(t)
	res, err := AblationOverlap(lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.OverlapSec > row.SerialSec {
			t.Fatalf("%s: overlap slower than serial", row.Index)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationStrategies(t *testing.T) {
	lab := getLab(t)
	res, err := AblationStrategies(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks.Order) != 4 {
		t.Fatalf("strategies = %v", res.Chunks.Order)
	}
	// Round-robin must be the worst on the chunks-to-find axis at the
	// midpoint: its chunks carry no locality at all.
	mid := lab.Cfg.K/2 - 1
	rr := res.Chunks.Series["RR"][mid]
	bag := res.Chunks.Series["BAG"][mid]
	if !math.IsNaN(rr) && !math.IsNaN(bag) && rr < bag {
		t.Fatalf("round-robin (%v) beat BAG (%v) on chunks-to-find", rr, bag)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationNaiveBag(t *testing.T) {
	lab := getLab(t)
	res, err := AblationNaiveBag(lab, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.NaiveClusters == 0 || res.AccelClusters == 0 {
		t.Fatal("degenerate clusterings")
	}
	ratio := float64(res.AccelClusters) / float64(res.NaiveClusters)
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("cluster counts diverge: %d vs %d", res.NaiveClusters, res.AccelClusters)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationNormOutlier(t *testing.T) {
	lab := getLab(t)
	res, err := AblationNormOutlier(lab)
	if err != nil {
		t.Fatal(err)
	}
	if res.NormRetained <= 0 {
		t.Fatal("nothing retained")
	}
	if len(res.Curves.Order) != 2 {
		t.Fatalf("curves = %v", res.Curves.Order)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestComparators(t *testing.T) {
	lab := getLab(t)
	res, err := Comparators(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Recall < 0 || row.Recall > 1 {
			t.Fatalf("%s %s: recall %v", row.Method, row.Param, row.Recall)
		}
		if row.SimSec <= 0 {
			t.Fatalf("%s %s: sim time %v", row.Method, row.Param, row.SimSec)
		}
	}
	// The exact VA-file must reach full recall.
	for _, row := range res.Rows {
		if row.Method == "va-file" && row.Param == "exact" && row.Recall < 0.999 {
			t.Fatalf("exact VA-file recall %v", row.Recall)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestLessons(t *testing.T) {
	lab := getLab(t)
	res, err := Lessons(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lessons) != 4 {
		t.Fatalf("lessons = %d", len(res.Lessons))
	}
	for _, l := range res.Lessons {
		if l.Evidence == "" || l.Statement == "" {
			t.Fatalf("lesson %d incomplete", l.Number)
		}
	}
	// At tiny test scale individual lessons may not all hold; lesson 1
	// (approximation saves time) must hold at any scale.
	if !res.Lessons[0].Holds {
		t.Fatalf("lesson 1 failed: %s", res.Lessons[0].Evidence)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "lessons") {
		t.Fatal("render missing title")
	}
}

// TestSectionsOnTinyLab renders every section cmd/experiment prints on
// the tiny lab, whose k of 10 is below several of the paper's plotted
// neighbor counts: a section must plot what its lab's k allows, not
// index past it.
func TestSectionsOnTinyLab(t *testing.T) {
	lab := getLab(t)
	var buf bytes.Buffer
	for _, sec := range Sections {
		buf.Reset()
		if err := sec.Render(lab, &buf); err != nil {
			t.Fatalf("%s: %v", sec.Name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty render", sec.Name)
		}
	}
}
