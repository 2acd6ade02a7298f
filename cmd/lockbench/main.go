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
// host (framework-overhead reproduction).
//
// Regression mode (the perfstat harness):
//
//	lockbench -regress [-baseline BENCH_5.json] [-regress-out BENCH_10.json]
//	          [-runs 5] [-ops N] [-slack 5] [-jit=on|off]
//	          [-occ on|off|auto] [-require-cells]
//	          [-profile] [-profile-rate N] [-profile-out contention.pb.gz]
//
// -profile arms sampled continuous contention profiling on every
// real-lock cell, so the measured throughput includes profiling
// overhead; -profile-out exports the cumulative pprof profile.
//
// -jit=off is the tier ablation: the hook_plane cells and the cBPF sim
// series dispatch through the interpreter instead of the JIT closure
// tier, so a baseline comparison quantifies what the JIT buys.
//
// -occ=off is the optimistic-tier ablation: the occ_read_heavy cell
// runs every read through the pessimistic read lock instead of
// sequence-validated speculation, so comparing the two baselines
// quantifies what the tier buys (the gate wants ≥1.5×).
//
// -require-cells hardens the -baseline comparison: a cell present in
// the baseline but absent from the new run ("MISSING" in the table)
// fails the gate with exit 6 instead of silently shrinking the matrix.
//
// measures the lock × workload matrix (real locks on hashtable / lock2 /
// page_fault2 plus the deterministic ksim Figure-2 sweep at simulated
// 8/16/80 cores), writes the result as a perfstat baseline, and — when
// -baseline is given — prints a benchstat-style pass/fail delta table,
// exiting 4 if any cell regressed significantly (throughput or
// allocs/op). BENCH_seed.json is the historical pre-pooling record (every
// contended acquire allocated its queue node); that path no longer exists.
//
// Schedule-fuzz mode (the internal/schedfuzz harness):
//
//	lockbench -schedfuzz lock-torture|map-churn|map-resize|chaos|jit-churn|seq-lock|selftest
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
	"concord/internal/locks"
	"concord/internal/perfstat"
	"concord/internal/profile"
)

func main() {
	exp := flag.String("experiment", "all", "f2a | f2b | f2c | f2c-real | a3 | all")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default: paper sweep)")
	format := flag.String("format", "table", "table | csv")
	out := flag.String("out", "", "output file (default stdout)")
	jsonDir := flag.String("json", "", "also write BENCH_<experiment>.json files into this directory")
	ops := flag.Int("ops", 2000, "ops per worker for f2c-real and -regress")
	deadline := flag.Duration("deadline", 0, "abort with a goroutine dump if the run exceeds this (0 = no deadline); keeps a wedged benchmark from hanging CI")
	regress := flag.Bool("regress", false, "run the perfstat regression matrix instead of a figure")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json to compare the -regress run against")
	regressOut := flag.String("regress-out", "BENCH_9.json", "where -regress writes the new baseline")
	runs := flag.Int("runs", 5, "repeated measurements per -regress cell")
	workers := flag.Int("workers", 8, "workers per real-lock -regress cell")
	slack := flag.Float64("slack", 5, "percent throughput drop tolerated before a significant delta fails the gate")
	jitOn := flag.Bool("jit", true, "execute policies through the JIT closure tier during -regress and figures; -jit=off is the interpreter ablation")
	occFlag := flag.String("occ", "on", "optimistic-tier mode for the occ_read_heavy -regress cell: on | off | auto; -occ=off is the pessimistic ablation")
	requireCells := flag.Bool("require-cells", false, "fail -regress (exit 6) when a cell present in -baseline is missing from the new run")
	profileOn := flag.Bool("profile", false, "run -regress with continuous contention profiling armed on every real-lock cell")
	profileRate := flag.Int("profile-rate", 0, "1-in-N sampling rate for -profile (0 = default)")
	profileOut := flag.String("profile-out", "", "write the -profile pprof contention profile here after the run")
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

	experiments.SetJIT(*jitOn)
	if mode, ok := locks.OCCModeByName(*occFlag); ok {
		experiments.SetOCC(mode)
	} else {
		fmt.Fprintf(os.Stderr, "lockbench: bad -occ %q (want on|off|auto)\n", *occFlag)
		os.Exit(2)
	}

	if *regress {
		cfg := experiments.RegressConfig{Runs: *runs, Threads: *workers, Ops: *ops, Label: "pooled"}
		if *profileOn {
			cp := profile.NewContinuous(profile.ContinuousConfig{SampleRate: *profileRate})
			cp.SetEnabled(true)
			cfg.Profiler = cp
		}
		code := runRegress(cfg, *baseline, *regressOut, *slack, *requireCells)
		if cfg.Profiler != nil && *profileOut != "" {
			data, err := cfg.Profiler.PprofProfile()
			if err == nil {
				err = os.WriteFile(*profileOut, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "lockbench:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Fprintln(os.Stderr, "wrote", *profileOut)
			}
		}
		os.Exit(code)
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

// runRegress measures the matrix, writes the new baseline, and gates
// against the old one. Exit codes: 0 pass, 1 I/O error, 4 regression,
// 6 baseline cell missing (only with -require-cells).
func runRegress(cfg experiments.RegressConfig, baselinePath, outPath string, slackPct float64, requireCells bool) int {
	fmt.Fprintf(os.Stderr, "running regression matrix (runs=%d workers=%d ops=%d)...\n",
		cfg.Runs, cfg.Threads, cfg.Ops)
	b := experiments.RunRegress(cfg)
	if outPath != "" {
		if err := perfstat.WriteBaseline(outPath, b); err != nil {
			fmt.Fprintln(os.Stderr, "lockbench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "wrote", outPath)
	}
	if baselinePath == "" {
		// No baseline: just report the fresh measurements.
		results := perfstat.CompareBaselines(&perfstat.Baseline{}, b, slackPct)
		perfstat.FormatResults(os.Stdout, results)
		return 0
	}
	old, err := perfstat.ReadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		return 1
	}
	results := perfstat.CompareBaselines(old, b, slackPct)
	if err := perfstat.FormatResults(os.Stdout, results); err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		return 1
	}
	code := 0
	if requireCells && perfstat.AnyMissing(results) {
		// A vanished cell means the matrix shrank — a bench edit or a
		// cell that stopped running — which a pure regression gate
		// would wave through as a clean pass.
		fmt.Fprintln(os.Stderr, "lockbench: MISSING baseline cells (see table) against", baselinePath)
		code = 6
	}
	if perfstat.AnyRegression(results) {
		fmt.Fprintln(os.Stderr, "lockbench: REGRESSION against", baselinePath)
		return 4
	}
	if code == 0 {
		fmt.Fprintln(os.Stderr, "lockbench: no significant regression against", baselinePath)
	}
	return code
}
