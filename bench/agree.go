package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runAgree runs the suite n times back to back on the same code and
// prints, per workload and end-to-end metric, every run's value, the gap
// between the best and the worst as a share of the best, and the bound
// BENCHMARK.json sets. A gap over its bound is an error: the benchmark
// could not tell such a regression from its own noise.
func runAgree(cfg config, chosen []spec, n int) error {
	if cfg.trace {
		return fmt.Errorf("-agree compares end-to-end metrics, which a traced run does not report")
	}
	bf, err := readBenchmarkFile(cfg.layout.root)
	if err != nil {
		return err
	}
	docs := make([]*document, n)
	for i := range docs {
		fmt.Fprintf(os.Stderr, "bench: agreement run %d of %d\n", i+1, n)
		if docs[i], err = runSuite(cfg, chosen); err != nil {
			return err
		}
	}
	over := 0
	fmt.Printf("%-12s %-24s %10s %8s  %s\n", "workload", "metric", "gap", "bound", "values")
	for _, sp := range chosen {
		for _, def := range bf.EndToEnd {
			vals := make([]float64, n)
			for i, doc := range docs {
				rep := doc.Workloads[sp.name]
				if !rep.Correct {
					return fmt.Errorf("%s: run %d was incorrect: %v", sp.name, i+1, rep.Failures)
				}
				vals[i] = rep.EndToEnd[def.Name].Value
			}
			best, worst := slices.Min(vals), slices.Max(vals)
			if def.Better == "higher" {
				best, worst = worst, best
			}
			gap := 0.0
			if best != 0 {
				gap = math.Abs((worst - best) / best)
			}
			mark := ""
			if gap > def.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-12s %-24s %9.2f%% %7.0f%%  %v%s\n", sp.name, def.Name, gap*100, def.Bound*100, vals, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree by more than their bound", over)
	}
	return nil
}
