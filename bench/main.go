// Command bench is the repository's benchmark: a load generator and
// layer prober that builds a 1M-descriptor sharded index, serves it with
// the real cmd/reprod binary over loopback HTTP, and measures four
// workloads end to end with tracing off. With -trace 1 it also repeats
// each workload in-process under spans, times each layer's public
// functions in isolation and climbs a rate ladder. README.md in this
// directory explains every metric and workload; BENCHMARK.json at the
// repository root declares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/vec"
)

// document is the one JSON document a run prints.
type document struct {
	Context   map[string]any     `json:"context"`
	Workloads map[string]*report `json:"workloads"`
}

// resultLine is the last line of standard output when one workload ran:
// the form the benchmark driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run: serve_hot, serve_cold, batch, serve_mixed or all")
	seed := flag.Int64("seed", 1, "seed for query sampling, class choice and arrival times (the collection seed is fixed)")
	seconds := flag.Float64("seconds", 30, "timed window per workload, in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run, the stage probes and the rate ladder, and reports per-layer metrics only")
	quick := flag.Bool("quick", false, "smoke mode: 20k descriptors, 2 s windows unless -seconds is given")
	agree := flag.Int("agree", 0, "run the suite this many times on the same code and compare the end-to-end metrics against BENCHMARK.json's bounds")
	flag.Parse()

	if err := run(*workloadFlag, *seed, *seconds, *trace == 1, *quick, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, trace, quick bool, agree int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg := config{
		layout:  layout{root: root, out: filepath.Join(root, "bench", "out")},
		seed:    seed,
		seconds: seconds,
		size:    fullSize,
		trace:   trace,
	}
	if quick {
		cfg.size = quickSize
		secondsSet := false
		flag.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
		if !secondsSet {
			cfg.seconds = 2
		}
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var chosen []spec
	if workloadName == "all" {
		chosen = specs
	} else if sp, ok := specByName(workloadName); ok {
		chosen = []spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	if err := os.MkdirAll(filepath.Join(cfg.layout.out, "bin"), 0o755); err != nil {
		return err
	}
	if err := buildReprod(cfg.layout); err != nil {
		return err
	}
	if agree > 0 {
		return runAgree(cfg, chosen, agree)
	}

	doc, err := runSuite(cfg, chosen)
	if err != nil {
		return err
	}
	pretty, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.layout.out, "result.json"), pretty, 0o644); err != nil {
		return err
	}
	fmt.Println(string(pretty))
	correct := true
	for _, rep := range doc.Workloads {
		correct = correct && rep.Correct
	}
	if len(chosen) == 1 {
		rep := doc.Workloads[chosen[0].name]
		line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
		if trace {
			line.Metrics = rep.PerLayer
		}
		compact, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(compact))
	}
	if !correct {
		return fmt.Errorf("a workload failed requests or verification; see \"failures\" above")
	}
	return nil
}

// runSuite runs the chosen workloads one after another, each from a
// fresh index and a fresh server.
func runSuite(cfg config, chosen []spec) (*document, error) {
	doc := &document{Context: contextBlock(cfg), Workloads: map[string]*report{}}
	for _, sp := range chosen {
		fmt.Fprintf(os.Stderr, "bench: %s: seed %d, %.0f s window, %d descriptors\n", sp.name, cfg.seed, cfg.seconds, cfg.size)
		rep, err := runWorkload(cfg, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		doc.Workloads[sp.name] = rep
	}
	return doc, nil
}

// contextBlock records what a reader needs to compare two documents.
func contextBlock(cfg config) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.layout.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"vec_backend":     vec.Backend(),
		"go_version":      runtime.Version(),
		"git_commit":      commit,
		"seed":            cfg.seed,
		"collection_seed": collectionSeed,
		"descriptors":     cfg.size,
		"seconds":         cfg.seconds,
		"traced":          cfg.trace,
	}
}
