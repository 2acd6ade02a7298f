package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSchedFuzzCommand drives the clean paths in-process; the failure
// path is TestSchedFuzzReplayLoop.
func TestSchedFuzzCommand(t *testing.T) {
	var sb, stderr strings.Builder
	if err := cmdSchedFuzz([]string{"targets"}, &sb, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seq-lock", "lock-torture", "map-churn", "chaos", "selftest"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("targets missing %q:\n%s", want, sb.String())
		}
	}

	sched := filepath.Join(t.TempDir(), "clean.schedule.json")
	sb.Reset()
	err := cmdSchedFuzz([]string{"run", "-target", "seq-lock", "-seed", "7",
		"-schedule-out", sched}, &sb, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PASS") {
		t.Errorf("clean run did not report PASS:\n%s", sb.String())
	}
	if _, err := os.Stat(sched); err != nil {
		t.Fatalf("schedule not written: %v", err)
	}

	sb.Reset()
	if err := cmdSchedFuzz([]string{"replay", sched}, &sb, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CLEAN") {
		t.Errorf("clean replay did not report CLEAN:\n%s", sb.String())
	}

	if err := cmdSchedFuzz([]string{"bogus"}, &sb, &stderr); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := cmdSchedFuzz(nil, &sb, &stderr); err == nil {
		t.Error("missing subcommand accepted")
	}
}

// TestSchedFuzzReplayLoop drives the acceptance loop in-process: a
// seeded fuzz run that fails returns exit status 5 and writes a
// schedule file and a flight bundle, and replay deterministically
// reproduces the same failure from it.
func TestSchedFuzzReplayLoop(t *testing.T) {
	dir := t.TempDir()
	sched := filepath.Join(dir, "fail.schedule.json")

	status := func(err error) int {
		var se *statusError
		if errors.As(err, &se) {
			return se.status
		}
		if err != nil {
			return 1
		}
		return 0
	}

	// Seed 3 trips the selftest invariant on iteration 0.
	var out, stderr strings.Builder
	err := cmdSchedFuzz([]string{"run", "-target", "selftest", "-seed", "3",
		"-iters", "32", "-schedule-out", sched, "-flight-dir", dir}, &out, &stderr)
	if code := status(err); code != 5 {
		t.Fatalf("fuzz run status %d (%v), want 5:\n%s%s", code, err, out.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "seed=3") || !strings.Contains(out.String(), "seed=3") {
		t.Errorf("run did not print its seed:\n%s%s", out.String(), stderr.String())
	}
	if _, err := os.Stat(sched); err != nil {
		t.Fatalf("schedule file not written: %v", err)
	}
	bundles, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(bundles) == 0 {
		t.Error("no flight bundle written")
	}

	out.Reset()
	stderr.Reset()
	err = cmdSchedFuzz([]string{"replay", sched}, &out, &stderr)
	if code := status(err); code != 5 {
		t.Fatalf("replay status %d (%v), want 5 (reproduced failure):\n%s%s", code, err, out.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "replay FAILED") || !strings.Contains(out.String(), "REPRODUCED") {
		t.Errorf("replay did not report the failure:\n%s%s", out.String(), stderr.String())
	}

	// A clean deterministic target passes, and reports the iterations
	// the harness ran (one, even when asked for none).
	out.Reset()
	err = cmdSchedFuzz([]string{"run", "-target", "seq-lock", "-seed", "7", "-iters", "0"}, &out, &stderr)
	if code := status(err); code != 0 {
		t.Fatalf("seq-lock status %d (%v), want 0:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "iterations=1 ") {
		t.Errorf("clean run misreports its iterations:\n%s", out.String())
	}

	// An unknown target is an error, not a detected failure.
	err = cmdSchedFuzz([]string{"run", "-target", "bogus"}, &out, &stderr)
	if code := status(err); code != 1 {
		t.Fatalf("unknown target status %d (%v), want 1", code, err)
	}
}
