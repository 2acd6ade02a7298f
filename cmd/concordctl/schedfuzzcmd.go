package main

import (
	"flag"
	"fmt"
	"io"

	"concord/internal/schedfuzz"
)

// statusFailed is the exit status of a schedule-fuzz run or replay that
// detected a failure: a successful bug hunt, whose product is the
// schedule file on disk, not a usage error.
const statusFailed = 5

// statusError is a command failure that exits with status rather than 1.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// cmdSchedFuzz implements `concordctl schedfuzz run|replay|targets`, the
// front end of the schedule fuzzer. Results go to w and the harness's
// progress lines to stderr.
func cmdSchedFuzz(args []string, w, stderr io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("schedfuzz: want run, replay or targets")
	}
	switch args[0] {
	case "run":
		return cmdSchedFuzzRun(args[1:], w, stderr)
	case "replay":
		return cmdSchedFuzzReplay(args[1:], w, stderr)
	case "targets":
		for _, name := range schedfuzz.TargetNames() {
			fmt.Fprintln(w, name)
		}
		return nil
	default:
		return fmt.Errorf("schedfuzz: unknown subcommand %q (want run, replay or targets)", args[0])
	}
}

func cmdSchedFuzzRun(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedfuzz run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "lock-torture", "fuzz target (see `concordctl schedfuzz targets`)")
	seed := fs.Uint64("seed", 1, "campaign seed")
	iters := fs.Int("iters", 1, "derived-seed iterations")
	strategy := fs.String("strategy", "random", "random | pct | targeted")
	scheduleOut := fs.String("schedule-out", "", "write the (failing or final) schedule file here")
	flightDir := fs.String("flight-dir", "", "arm a flight recorder for failures in this directory")
	deadline := fs.Duration("deadline", 0, "per-iteration deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("schedfuzz run: unexpected arguments %q", fs.Args())
	}
	h, err := schedfuzz.NewHarness(schedfuzz.HarnessConfig{
		Seed:        *seed,
		Strategy:    *strategy,
		Target:      *target,
		Iterations:  *iters,
		Deadline:    *deadline,
		ScheduleOut: *scheduleOut,
		FlightDir:   *flightDir,
		Out:         stderr,
	})
	if err != nil {
		return err
	}
	res, err := h.Run()
	if err != nil {
		return err
	}
	if res.Failed {
		fmt.Fprintf(w, "FAIL target=%s seed=%d iter=%d: %v\n", *target, res.Seed, res.Iter, res.Err)
		if res.SchedulePath != "" {
			fmt.Fprintf(w, "schedule: %s\n", res.SchedulePath)
		}
		for _, b := range res.FlightBundles {
			fmt.Fprintf(w, "flight bundle: %s\n", b)
		}
		return &statusError{statusFailed, fmt.Sprintf("schedfuzz: %s failed at seed=%d", *target, res.Seed)}
	}
	fmt.Fprintf(w, "PASS target=%s iterations=%d last seed=%d decisions=%d\n",
		*target, res.Iter+1, res.Seed, res.Decisions)
	return nil
}

func cmdSchedFuzzReplay(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedfuzz replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flightDir := fs.String("flight-dir", "", "arm a flight recorder for the replayed run")
	deadline := fs.Duration("deadline", 0, "replay deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("schedfuzz replay: one schedule file required")
	}
	res, err := schedfuzz.ReplayFile(fs.Arg(0), schedfuzz.ReplayOptions{
		FlightDir: *flightDir,
		Deadline:  *deadline,
		Out:       stderr,
	})
	if err != nil {
		return err
	}
	if res.Failed {
		state := "NEW FAILURE"
		if res.Reproduced {
			state = "REPRODUCED"
		}
		fmt.Fprintf(w, "%s seed=%d: %v\n", state, res.Seed, res.Err)
		for _, b := range res.FlightBundles {
			fmt.Fprintf(w, "flight bundle: %s\n", b)
		}
		return &statusError{statusFailed, fmt.Sprintf("schedfuzz: replay of %s failed", fs.Arg(0))}
	}
	fmt.Fprintf(w, "CLEAN seed=%d decisions=%d\n", res.Seed, res.Decisions)
	return nil
}
