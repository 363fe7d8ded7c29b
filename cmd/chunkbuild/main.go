// Command chunkbuild forms chunks from a descriptor collection and writes
// the paper's two-file chunk index (§4.2) as a one-shard index directory.
//
// Usage:
//
//	chunkbuild -coll collection.desc -strategy bag -size 947 -out index
//
// creates the directory index holding shard-0.chunk, shard-0.idx and a
// manifest, ready for chunksearch -index and reprod -index. The summary
// line reports the build and save times separately; -cpuprofile writes a
// CPU profile of both to a file for go tool pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "chunkbuild: %v\n", err)
		os.Exit(1)
	}
}

// run is the command behind a testable seam: a non-nil error exits
// non-zero with a one-line diagnostic, after the CPU profile, if any, is
// stopped and closed.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("chunkbuild", flag.ContinueOnError)
	fs.SetOutput(stderr)
	collPath := fs.String("coll", "collection.desc", "collection file")
	strategy := fs.String("strategy", "srtree", "chunk-forming strategy: bag | srtree | roundrobin | hybrid")
	size := fs.Int("size", 1000, "target descriptors per chunk")
	seed := fs.Int64("seed", 1, "strategy seed")
	out := fs.String("out", "index", "output index directory (created if missing)")
	verbose := fs.Bool("v", false, "log clustering progress")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the build and save to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	coll, err := repro.LoadCollection(*collPath)
	if err != nil {
		return err
	}
	cfg := repro.BuildConfig{
		Strategy:  repro.Strategy(*strategy),
		ChunkSize: *size,
		Seed:      *seed,
	}
	if *verbose {
		cfg.Progress = func(pass, clusters int) {
			fmt.Fprintf(stderr, "pass %d: %d clusters\n", pass, clusters)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	start := time.Now()
	idx, err := repro.BuildSharded(coll, cfg, 1)
	if err != nil {
		return err
	}
	defer idx.Close()
	build := time.Since(start)
	start = time.Now()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := idx.Save(*out); err != nil {
		return err
	}
	save := time.Since(start)
	fmt.Fprintf(stdout, "built %s index: %d chunks over %d descriptors (%d outliers); build %v, save %v\n",
		*strategy, idx.Chunks(), idx.Len(), len(idx.Outliers), build.Round(time.Millisecond), save.Round(time.Millisecond))
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
