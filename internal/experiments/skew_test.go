package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSkewShape runs the skew study on the tiny lab and pins its
// structure: the two layout cells in order, positive simulated times
// with the p99 at or above the mean (nearest-rank on a small workload),
// and a rendering with one line per cell.
func TestSkewShape(t *testing.T) {
	lab := getLab(t)
	res, err := Skew(lab)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != skewShards || res.Replication != skewReplication || res.ZipfS != skewZipfS {
		t.Fatalf("study parameters: %+v", res)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for i, layout := range []string{"byte-balanced", "heat-balanced"} {
		row := res.Rows[i]
		if row.Layout != layout {
			t.Fatalf("row %d is %s, want %s", i, row.Layout, layout)
		}
		if row.P99Sec <= 0 || row.MeanSec <= 0 {
			t.Fatalf("row %d: non-positive simulated times %+v", i, row)
		}
		if row.P99Sec < row.MeanSec {
			t.Fatalf("row %d: p99 %g below mean %g", i, row.P99Sec, row.MeanSec)
		}
		if row.ReadsStddev < 0 {
			t.Fatalf("row %d: negative stddev %+v", i, row)
		}
	}

	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Skew study") {
		t.Fatalf("render missing header:\n%s", out)
	}
	if got := strings.Count(out, "balanced"); got != 2 {
		t.Fatalf("render has %d cell rows, want 2:\n%s", got, out)
	}
}
