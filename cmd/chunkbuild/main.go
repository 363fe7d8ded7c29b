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
	"log"
	"os"
	"runtime/pprof"
	"time"

	"repro"
)

func main() {
	collPath := flag.String("coll", "collection.desc", "collection file")
	strategy := flag.String("strategy", "srtree", "chunk-forming strategy: bag | srtree | roundrobin | hybrid")
	size := flag.Int("size", 1000, "target descriptors per chunk")
	seed := flag.Int64("seed", 1, "strategy seed")
	out := flag.String("out", "index", "output index directory (created if missing)")
	verbose := flag.Bool("v", false, "log clustering progress")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the build and save to this file")
	flag.Parse()

	coll, err := repro.LoadCollection(*collPath)
	if err != nil {
		log.Fatalf("chunkbuild: %v", err)
	}
	cfg := repro.BuildConfig{
		Strategy:  repro.Strategy(*strategy),
		ChunkSize: *size,
		Seed:      *seed,
	}
	if *verbose {
		cfg.Progress = func(pass, clusters int) {
			fmt.Fprintf(os.Stderr, "pass %d: %d clusters\n", pass, clusters)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("chunkbuild: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("chunkbuild: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("chunkbuild: %v", err)
			}
		}()
	}
	start := time.Now()
	idx, err := repro.BuildSharded(coll, cfg, 1)
	if err != nil {
		log.Fatalf("chunkbuild: %v", err)
	}
	build := time.Since(start)
	start = time.Now()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("chunkbuild: %v", err)
	}
	if err := idx.Save(*out); err != nil {
		log.Fatalf("chunkbuild: %v", err)
	}
	save := time.Since(start)
	fmt.Printf("built %s index: %d chunks over %d descriptors (%d outliers); build %v, save %v\n",
		*strategy, idx.Chunks(), idx.Len(), len(idx.Outliers), build.Round(time.Millisecond), save.Round(time.Millisecond))
	fmt.Printf("wrote %s\n", *out)
}
