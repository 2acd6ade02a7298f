// lockbench regenerates the paper's evaluation figures (§5, Figure 2)
// and the DESIGN.md ablations as tables or CSV.
//
// Usage:
//
//	lockbench -experiment f2a|f2b|f2c|f2c-real|a3|all
//	          [-threads 1,2,4,...] [-format table|csv] [-out file]
//	          [-json dir] [-deadline 10m]
//
// -deadline bounds the whole run: if it expires, lockbench prints a
// full goroutine dump to stderr (so a wedged lock is diagnosable) and
// exits with status 3 instead of hanging CI.
//
// -json additionally writes one BENCH_<experiment>.json per experiment
// (machine-readable points: series, threads, value) into dir.
//
// f2a, f2b and f2c run on the simulated 8-socket/80-CPU machine (shape
// reproduction); f2c-real measures the real lock implementations on the
// host (framework-overhead reproduction). The end-to-end benchmark of
// the full stack is bench/ (BENCHMARK.json), not this command.
//
// Schedule-fuzz mode (the internal/schedfuzz harness):
//
//	lockbench -schedfuzz lock-torture|map-churn|chaos|jit-churn|seq-lock|selftest
//	          [-seed N] [-schedfuzz-iters N]
//	          [-schedfuzz-strategy random|pct|targeted]
//	          [-schedule-out f.json] [-flight-dir d] [-deadline 2m]
//	lockbench -replay f.json [-flight-dir d]
//
// A detected failure exits 5 and writes a replayable schedule file (plus
// a flight bundle when -flight-dir is set); -replay re-executes the
// recorded decision sequence deterministically. With both -schedfuzz and
// -deadline, a tripped deadline persists the schedule and bundle before
// the goroutine dump.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"concord/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "f2a | f2b | f2c | f2c-real | a3 | all")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default: paper sweep)")
	format := flag.String("format", "table", "table | csv")
	out := flag.String("out", "", "output file (default stdout)")
	jsonDir := flag.String("json", "", "also write BENCH_<experiment>.json files into this directory")
	ops := flag.Int("ops", 2000, "ops per worker for f2c-real")
	deadline := flag.Duration("deadline", 0, "abort with a goroutine dump if the run exceeds this (0 = no deadline); keeps a wedged benchmark from hanging CI")
	fuzzTarget := flag.String("schedfuzz", "", "run the schedule fuzzer against this target (see internal/schedfuzz; e.g. lock-torture, map-churn, chaos)")
	fuzzReplay := flag.String("replay", "", "replay a recorded schedule file instead of fuzzing")
	fuzzSeed := flag.Uint64("seed", 1, "campaign seed for -schedfuzz; a failing iteration is reproducible from this plus the printed iteration seed")
	fuzzIters := flag.Int("schedfuzz-iters", 1, "derived-seed iterations per -schedfuzz campaign")
	fuzzStrategy := flag.String("schedfuzz-strategy", "random", "schedule perturbation strategy: random | pct | targeted")
	fuzzScheduleOut := flag.String("schedule-out", "", "write the (failing or final) schedule file here")
	fuzzFlightDir := flag.String("flight-dir", "", "arm a flight recorder for -schedfuzz/-replay failures in this directory")
	flag.Parse()

	if *deadline > 0 {
		time.AfterFunc(*deadline, func() {
			fmt.Fprintf(os.Stderr, "lockbench: deadline %v exceeded — dumping goroutines\n", *deadline)
			// A wedged fuzzed run first persists its reproduction
			// recipe: the schedule file and (when -flight-dir is set) a
			// flight bundle carrying the goroutine dump.
			deadlineFuzzDump(os.Stderr)
			// The stacks say *which* lock operation wedged — the
			// diagnostic a silent CI timeout would throw away.
			if prof := pprof.Lookup("goroutine"); prof != nil {
				prof.WriteTo(os.Stderr, 2)
			}
			os.Exit(3)
		})
	}

	if *fuzzTarget != "" || *fuzzReplay != "" {
		os.Exit(runSchedFuzz(schedFuzzFlags{
			target:      *fuzzTarget,
			replay:      *fuzzReplay,
			seed:        *fuzzSeed,
			iters:       *fuzzIters,
			strategy:    *fuzzStrategy,
			scheduleOut: *fuzzScheduleOut,
			flightDir:   *fuzzFlightDir,
		}))
	}

	threads := experiments.DefaultThreads
	if *threadsFlag != "" {
		threads = nil
		for _, s := range strings.Split(*threadsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "lockbench: bad thread count %q\n", s)
				os.Exit(2)
			}
			threads = append(threads, n)
		}
	}

	var pts []experiments.Point
	run := func(name string) {
		switch name {
		case "f2a":
			fmt.Fprintln(os.Stderr, "running f2a: page_fault2 (simulated 8×10 machine)...")
			pts = append(pts, experiments.Figure2a(threads)...)
		case "f2b":
			fmt.Fprintln(os.Stderr, "running f2b: lock2 (simulated 8×10 machine)...")
			pts = append(pts, experiments.Figure2b(threads)...)
		case "f2c":
			fmt.Fprintln(os.Stderr, "running f2c: hashtable normalized (simulated)...")
			pts = append(pts, experiments.Figure2cSim(threads)...)
		case "f2c-real":
			fmt.Fprintln(os.Stderr, "running f2c-real: hashtable normalized (real locks)...")
			pts = append(pts, experiments.Figure2cReal(threads, *ops)...)
		case "a3":
			fmt.Fprintln(os.Stderr, "running a3: shuffle-policy ablation...")
			pts = append(pts, experiments.ShufflePolicyAblation(80)...)
		default:
			fmt.Fprintf(os.Stderr, "lockbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"f2a", "f2b", "f2c", "a3"} {
			run(name)
		}
	} else {
		run(*exp)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	var err error
	if *format == "csv" {
		err = experiments.WriteCSV(w, pts)
	} else {
		err = experiments.RenderTable(w, pts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		os.Exit(1)
	}
	if *jsonDir != "" {
		paths, err := experiments.WriteBenchJSON(*jsonDir, pts)
		for _, p := range paths {
			fmt.Fprintln(os.Stderr, "wrote", p)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockbench:", err)
			os.Exit(1)
		}
	}
}
