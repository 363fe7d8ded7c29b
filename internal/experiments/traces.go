package experiments

import (
	"fmt"

	"repro/internal/chunkfile"
	"repro/internal/descriptor"
	"repro/internal/knn"
	"repro/internal/metrics"
	"repro/internal/scan"
	"repro/internal/search"
	"repro/internal/search/batchexec"
	"repro/internal/vec"
)

// runTraces executes every query against the store to completion (the
// paper always ran queries to conclusion and logged metrics after every
// chunk, §5.4) and returns one QueryTrace per query, with Found counted
// against the provided ground truth.
//
// The queries run as one batch through the chunk-major engine with its
// per-(query, chunk) trace hook: every chunk wanted by several queries
// is decoded once instead of once per query, which is what makes the
// full experiment grid tolerable, while each query's event stream is
// byte-identical to a run of that query alone. Events of one query arrive
// in its rank order; events of distinct queries may arrive concurrently,
// so the hook only ever touches that query's own trace.
func (l *Lab) runTraces(store chunkfile.Store, queries []vec.Vector, gt *scan.GroundTruth) ([]metrics.QueryTrace, error) {
	out := make([]metrics.QueryTrace, len(queries))
	truths := make([]map[descriptor.ID]struct{}, len(queries))
	for qi := range queries {
		truth := make(map[descriptor.ID]struct{}, len(gt.IDs[qi]))
		for _, id := range gt.IDs[qi] {
			truth[id] = struct{}{}
		}
		truths[qi] = truth
	}
	eng := batchexec.New(store, l.Model)
	results := make([]search.Result, len(queries))
	err := eng.Run(queries, batchexec.Options{
		K:       l.Cfg.K,
		Stop:    search.ToCompletion{},
		Overlap: l.Cfg.Overlap,
		Trace: func(qi int, ev search.Event) {
			out[qi].Elapsed = append(out[qi].Elapsed, ev.Elapsed)
			out[qi].Found = append(out[qi].Found, countFound(truths[qi], ev.Neighbors))
		},
	}, results)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for qi := range out {
		if err := out[qi].Validate(); err != nil {
			return nil, fmt.Errorf("experiments: query %d: %w", qi, err)
		}
	}
	return out, nil
}

func countFound(truth map[descriptor.ID]struct{}, neighbors []knn.Neighbor) int {
	n := 0
	for _, nb := range neighbors {
		if _, ok := truth[nb.ID]; ok {
			n++
		}
	}
	return n
}
