package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"concord/internal/experiments"
)

// figure is one experiment `concordctl figures` can regenerate.
type figure struct {
	name, what string
	run        func(threads []int, ops int) []experiments.Point
}

// figureList is every experiment in the order -experiment all runs them
// (f2c-real times the host's real locks, so all leaves it out).
var figureList = []figure{
	{"f2a", "page_fault2 (simulated 8×10 machine)",
		func(th []int, _ int) []experiments.Point { return experiments.Figure2a(th) }},
	{"f2b", "lock2 (simulated 8×10 machine)",
		func(th []int, _ int) []experiments.Point { return experiments.Figure2b(th) }},
	{"f2c", "hashtable normalized (simulated)",
		func(th []int, _ int) []experiments.Point { return experiments.Figure2cSim(th) }},
	{"f2c-real", "hashtable normalized (real locks)", experiments.Figure2cReal},
	{"a3", "shuffle-policy ablation",
		func([]int, int) []experiments.Point { return experiments.ShufflePolicyAblation(80) }},
}

// cmdFigures implements `concordctl figures`: it regenerates the paper's
// evaluation figures (§5, Figure 2) and the shuffle-policy ablation as a
// table or CSV on w (or -out). f2a, f2b, f2c and a3 run on the simulated
// 8-socket/80-CPU machine and are deterministic; f2c-real measures the
// real lock implementations on the host. Progress lines go to stderr.
func cmdFigures(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "f2a | f2b | f2c | f2c-real | a3 | all")
	threadsFlag := fs.String("threads", "", "comma-separated thread counts (default: paper sweep)")
	format := fs.String("format", "table", "table | csv")
	out := fs.String("out", "", "output file (default stdout)")
	ops := fs.Int("ops", 2000, "ops per worker for f2c-real")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("figures: unexpected arguments %q", fs.Args())
	}

	render := experiments.RenderTable
	switch *format {
	case "table":
	case "csv":
		render = experiments.WriteCSV
	default:
		return fmt.Errorf("figures: unknown format %q (want table or csv)", *format)
	}

	var run []figure
	for _, f := range figureList {
		if *exp == f.name || (*exp == "all" && f.name != "f2c-real") {
			run = append(run, f)
		}
	}
	if len(run) == 0 {
		return fmt.Errorf("figures: unknown experiment %q", *exp)
	}

	threads := experiments.DefaultThreads
	if *threadsFlag != "" {
		threads = nil
		for _, s := range strings.Split(*threadsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("figures: bad thread count %q", s)
			}
			threads = append(threads, n)
		}
	}

	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}()
		w = file
	}

	var pts []experiments.Point
	for _, f := range run {
		fmt.Fprintf(os.Stderr, "running %s: %s...\n", f.name, f.what)
		pts = append(pts, f.run(threads, *ops)...)
	}
	return render(w, pts)
}
