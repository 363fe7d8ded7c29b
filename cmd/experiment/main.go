// Command experiment regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	experiment -exp all                 # everything (takes a few minutes)
//	experiment -exp table1,fig1,fig2
//	REPRO_N=50000 experiment -exp table2
//
// Output goes to stdout; progress to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiment: %v\n", err)
		os.Exit(1)
	}
}

// run is the command behind a testable seam: a non-nil error exits
// non-zero with a one-line diagnostic. Experiment names are validated
// before the (expensive) lab is built, so a typo fails in milliseconds,
// not after minutes of index building.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var known []string
	for _, sec := range experiments.Sections {
		known = append(known, sec.Name)
	}
	expFlag := fs.String("exp", "all", "comma-separated experiments: "+strings.Join(known, ",")+",all")
	nFlag := fs.Int("n", 0, "collection size override (also REPRO_N)")
	qFlag := fs.Int("queries", 0, "workload size override (also REPRO_QUERIES)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nFlag < 0 || *qFlag < 0 {
		return fmt.Errorf("-n %d and -queries %d must not be negative", *nFlag, *qFlag)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if name != "all" && !slices.Contains(known, name) {
			return fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return fmt.Errorf("no experiments selected: pass -exp with at least one of %s, all", strings.Join(known, ", "))
	}

	cfg := experiments.DefaultConfig()
	if *nFlag > 0 {
		cfg.N = *nFlag
	}
	if *qFlag > 0 {
		cfg.Queries = *qFlag
	}
	if !*quiet {
		cfg.Log = stderr
	}

	start := time.Now()
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "lab ready in %v (n=%d, queries=%d)\n",
		time.Since(start).Round(time.Second), cfg.N, cfg.Queries)

	for _, sec := range experiments.Sections {
		if !want["all"] && !want[sec.Name] {
			continue
		}
		if err := sec.Render(lab, stdout); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Second))
	return nil
}
