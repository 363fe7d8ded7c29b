package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Lesson is one of the paper's §5.7 conclusions, checked against this
// run's measurements.
type Lesson struct {
	Number    int
	Statement string
	Evidence  string
	Holds     bool
}

// LessonsResult verifies the paper's four lessons programmatically — the
// reproduction's bottom line.
type LessonsResult struct {
	Lessons []Lesson
}

// Lessons evaluates all four §5.7 lessons on the lab.
func Lessons(lab *Lab) (*LessonsResult, error) {
	res := &LessonsResult{}
	k := lab.Cfg.K

	// Lesson 1: "relaxing the requirements for precise answers may yield
	// significant improvements in response time" — most of the top-k is
	// found in a small fraction of the completion time.
	fig4, err := Figure45(lab, "DQ")
	if err != nil {
		return nil, err
	}
	t2, err := Table2(lab)
	if err != nil {
		return nil, err
	}
	srName := "SR / " + lab.Grans[0].Name
	mostOfK := fig4.Series[srName][k*4/5-1] // time to 80% of the true top-k
	completion := t2.Seconds[lab.Grans[0].Name]["SR"]["DQ"]
	res.Lessons = append(res.Lessons, Lesson{
		Number:    1,
		Statement: "Relaxing exactness yields large response-time savings",
		Evidence: fmt.Sprintf("80%% of the true top-%d in %.3fs vs %.3fs to completion (%.0f%% saved)",
			k, mostOfK, completion, (1-mostOfK/completion)*100),
		Holds: mostOfK < completion/2,
	})

	// Lesson 2: "elapsed time is a more natural stop rule than the number
	// of chunks read" — chunk counts map to wildly different times across
	// indexes (variable chunk sizes), time maps to itself.
	fig2, err := Figure23(lab, "DQ")
	if err != nil {
		return nil, err
	}
	bagName := "BAG / " + lab.Grans[0].Name
	bagChunks := fig2.Series[bagName][k/2-1]
	srChunks := fig2.Series[srName][k/2-1]
	bagTime := fig4.Series[bagName][k/2-1]
	srTime := fig4.Series[srName][k/2-1]
	chunkSpread := ratioSpread(bagChunks, srChunks)
	timeSpread := ratioSpread(bagTime, srTime)
	res.Lessons = append(res.Lessons, Lesson{
		Number:    2,
		Statement: "Elapsed time is the more natural stop rule than chunk count",
		Evidence: fmt.Sprintf("same quality needs %.1fx different chunk budgets across indexes but only %.2fx different time budgets",
			chunkSpread, timeSpread),
		Holds: chunkSpread > timeSpread,
	})

	// Lesson 3: "not necessary to make all chunks the exact same size,
	// but rather to avoid very small and very large chunks" — the
	// chunk-size sweep has a broad flat middle.
	sweep, err := Figure67(lab, "DQ", nil, []int{k})
	if err != nil {
		return nil, err
	}
	ys := sweep.Series[fmt.Sprintf("%d neighbors", k)]
	lo, hi, mid := ys[0], ys[len(ys)-1], minOf(ys)
	res.Lessons = append(res.Lessons, Lesson{
		Number:    3,
		Statement: "A wide range of chunk sizes performs similarly; only the extremes hurt",
		Evidence: fmt.Sprintf("time to %d neighbors: %.3fs at size %d, %.3fs at the plateau, %.3fs at size %d",
			k, lo, sweep.ChunkSizes[0], mid, hi, sweep.ChunkSizes[len(sweep.ChunkSizes)-1]),
		Holds: lo > 1.5*mid && hi > 1.2*mid,
	})

	// Lesson 4: "the energy spent on creating dense chunks is largely
	// wasted" — SR matches or beats BAG on the time axis for early
	// results while costing orders of magnitude less to build.
	bt := BuildTime(lab)
	buildRatio := bt.Rows[0].Ratio
	earlyBag := fig4.Series[bagName][k/3-1]
	earlySR := fig4.Series[srName][k/3-1]
	res.Lessons = append(res.Lessons, Lesson{
		Number:    4,
		Statement: "Chunk-forming must prioritize size first; dense clustering is wasted energy",
		Evidence: fmt.Sprintf("BAG costs %s more to build yet SR reaches %d neighbors in %.3fs vs BAG's %.3fs",
			wallf("%.0fx", buildRatio), k/3, earlySR, earlyBag),
		Holds: buildRatio > 10 && earlySR <= earlyBag*1.05,
	})
	return res, nil
}

func ratioSpread(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a < b {
		a, b = b, a
	}
	return a / b
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Render writes the verdicts.
func (r *LessonsResult) Render(w io.Writer) {
	headers := []string{"Lesson", "Holds", "Statement", "Evidence"}
	var rows [][]string
	for _, l := range r.Lessons {
		verdict := "yes"
		if !l.Holds {
			verdict = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", l.Number), verdict, l.Statement, l.Evidence,
		})
	}
	metrics.RenderTable(w, "The paper's four lessons (§5.7), checked against this run", headers, rows)
}
