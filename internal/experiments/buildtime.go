package experiments

import (
	"io"
	"time"

	"repro/internal/metrics"
)

// BuildTimeResult reproduces the §5.2 build-cost narrative: BAG took
// "almost 12 days" while the SR-tree took two to three hours. The absolute
// numbers scale with the collection; the asymmetry is the result. Both
// builds use every core (BAG's candidate search, the bulk load's halves),
// so the ratio compares like with like.
type BuildTimeResult struct {
	Rows []BuildTimeRow
}

// BuildTimeRow is one granularity's build cost pair.
type BuildTimeRow struct {
	Name     string
	BagBuild time.Duration
	SRBuild  time.Duration
	Ratio    float64
}

// BuildTime reports the build times the lab recorded.
func BuildTime(lab *Lab) *BuildTimeResult {
	res := &BuildTimeResult{}
	for _, g := range lab.Grans {
		ratio := 0.0
		if g.SRBuild > 0 {
			ratio = float64(g.BagBuild) / float64(g.SRBuild)
		}
		res.Rows = append(res.Rows, BuildTimeRow{
			Name:     g.Name,
			BagBuild: g.BagBuild,
			SRBuild:  g.SRBuild,
			Ratio:    ratio,
		})
	}
	return res
}

// Render writes the build-time comparison.
func (r *BuildTimeResult) Render(w io.Writer) {
	headers := []string{"Chunk sizes", "BAG build", "SR-tree build", "BAG/SR ratio"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			wallf("%v", row.BagBuild.Round(time.Millisecond)),
			wallf("%v", row.SRBuild.Round(time.Millisecond)),
			wallf("%.0fx", row.Ratio),
		})
	}
	metrics.RenderTable(w, "Build time: BAG clustering vs SR-tree bulk load (paper: ~12 days vs ~2-3 hours)", headers, rows)
}
