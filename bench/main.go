// Command bench is the repository's benchmark: the full Concord stack —
// lock, framework, attached policy, supervisor, profiler — driven the way
// a user drives it, on five named workloads, with end-to-end metrics from
// an untraced run and a per-layer ledger from a traced one. BENCHMARK.json
// at the repository root names the workloads and metrics; README.md in
// this directory explains them.
//
//	bash bench/run.sh -workload ht_queue_numa -seed 1            one workload, end to end
//	bash bench/run.sh -workload ht_queue_numa -seed 1 -trace 1   its traced run
//	bash bench/run.sh -all -seed 1                               everything, by name
//	bash bench/run.sh -selfcheck                                 two sets, compared with the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		seconds   = fs.Float64("seconds", 16, "measured seconds of the untraced run")
		trace     = fs.Int("trace", 0, "1 for the traced run: per-layer metrics and a span file")
		all       = fs.Bool("all", false, "run every workload, untraced and traced, and print every metric")
		selfcheck = fs.Bool("selfcheck", false, "run two sets and compare them with the bounds in BENCHMARK.json")
		root      = fs.String("root", "", "repository root (default: found from the working directory)")
		outDir    = fs.String("out", "", "directory for trace files and reports (default <root>/bench/out)")
		skip      = fs.Bool("skip-probes", false, "traced run without the workload-independent probes")
		detail    = fs.String("detail", "", "also write the run's full report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *root == "" {
		var err error
		if *root, err = findRoot(); err != nil {
			return err
		}
	}
	if *outDir == "" {
		*outDir = filepath.Join(*root, "bench", "out")
	}
	if *seconds < 0.1 || *seconds > 60 {
		return fmt.Errorf("-seconds %g out of range", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	threads := min(runtime.NumCPU(), maxThreads)
	runtime.GOMAXPROCS(threads)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, threads: threads,
		root: *root, outDir: *outDir, skipProbes: *skip, probeFloor: probeFloor}

	switch {
	case *all:
		return runAll(cfg)
	case *selfcheck:
		return runSelfcheck(cfg)
	case *workload == "":
		return errors.New("one of -workload, -all or -selfcheck is required")
	}
	if _, ok := findWorkload(*workload); !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	holdBallast()
	measure, defs := runEndToEnd, endToEnd
	if *trace == 1 {
		measure, defs = runTraced, perLayer
	}
	r, err := measure(cfg)
	if err != nil {
		return err
	}
	for _, n := range r.Notes {
		fmt.Println("#", n)
	}
	if *detail != "" {
		if err := writeJSON(*detail, r); err != nil {
			return err
		}
	}
	return printResultLine(os.Stdout, r, defs)
}

// findRoot looks for the repository root — the directory holding
// policies/ and internal/ — at and above the working directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "policies", "numa.pol")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("policies/numa.pol not found at or above the working directory; pass -root")
		}
		dir = parent
	}
}

// resultLine is the last line of a run's standard output: the contract
// with whatever drives the benchmark.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(w io.Writer, r *report, defs []metricDef) error {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
