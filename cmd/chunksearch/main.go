// Command chunksearch runs k-NN queries against a chunk index with any of
// the paper's stop rules (§4.3) and reports quality and simulated time.
//
// Usage:
//
//	chunksearch -coll collection.desc -index index -queries 20 -k 30 -chunks 5
//	chunksearch -coll collection.desc -index index -time 500ms
//	chunksearch -coll collection.desc -index index            # run to completion
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "chunksearch: %v\n", err)
		os.Exit(1)
	}
}

// run is the command behind a testable seam: a non-nil error exits
// non-zero with a one-line diagnostic.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chunksearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	collPath := fs.String("coll", "collection.desc", "collection file (query source + ground truth)")
	indexDir := fs.String("index", "index", "index directory (as written by chunkbuild)")
	queries := fs.Int("queries", 10, "number of DQ queries to run")
	k := fs.Int("k", 30, "neighbors per query")
	chunks := fs.Int("chunks", 0, "stop after this many chunks (0 = off)")
	budget := fs.Duration("time", 0, "stop after this much simulated time (0 = off)")
	seed := fs.Int64("seed", 9, "query sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queries <= 0 {
		return fmt.Errorf("-queries %d must be positive", *queries)
	}
	if *k <= 0 {
		return fmt.Errorf("-k %d must be positive", *k)
	}
	if *chunks < 0 || *budget < 0 {
		return fmt.Errorf("-chunks %d and -time %v must not be negative", *chunks, *budget)
	}
	if *chunks > 0 && *budget > 0 {
		return fmt.Errorf("-chunks %d and -time %v are conflicting stop rules; set at most one", *chunks, *budget)
	}

	coll, err := repro.LoadCollection(*collPath)
	if err != nil {
		return err
	}
	idx, err := repro.OpenSharded(*indexDir)
	if err != nil {
		return err
	}
	defer idx.Close()

	qs, err := repro.DatasetQueries(coll, *queries, *seed)
	if err != nil {
		return err
	}
	opts := repro.SearchOptions{K: *k, MaxChunks: *chunks, MaxTime: *budget, Overlap: true}

	var sumPrec, sumSim float64
	var sumChunks int
	for qi, q := range qs {
		res, err := idx.Search(q, opts)
		if err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		truth := repro.Exact(coll, q, *k)
		p := repro.Precision(res.Neighbors, truth)
		sumPrec += p
		sumSim += res.Simulated.Seconds()
		sumChunks += res.ChunksRead
		fmt.Fprintf(stdout, "query %2d: %2d chunks, sim %8.3fs, wall %8v, precision %.2f, exact=%v\n",
			qi, res.ChunksRead, res.Simulated.Seconds(), res.Wall.Round(time.Microsecond), p, res.Exact)
	}
	n := float64(len(qs))
	fmt.Fprintf(stdout, "\navg: %.1f chunks, %.3fs simulated, precision %.3f\n",
		float64(sumChunks)/n, sumSim/n, sumPrec/n)
	return nil
}
