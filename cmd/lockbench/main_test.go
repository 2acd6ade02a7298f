package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The binary's surface is flags + stdout; build it once and drive it.
func buildLockbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lockbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestLockbenchCSVAndTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLockbench(t)

	// Small sweep to keep runtime down.
	out, err := exec.Command(bin, "-experiment", "f2b", "-threads", "1,20", "-format", "csv").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	csv := string(out)
	for _, want := range []string{
		"experiment,series,threads,value",
		"f2b,Stock,1,", "f2b,ShflLock,20,", "f2b,Concord-ShflLock,20,",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing %q:\n%s", want, csv)
		}
	}

	out, err = exec.Command(bin, "-experiment", "f2c", "-threads", "1,10", "-format", "table").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(string(out), "== f2c ==") {
		t.Errorf("table missing header:\n%s", out)
	}

	// Output file.
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := exec.Command(bin, "-experiment", "a3", "-format", "csv", "-out", path).Run(); err != nil {
		t.Fatalf("run with -out: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("a3,numa,80,")) {
		t.Errorf("file output:\n%s", data)
	}
}

func TestLockbenchDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLockbench(t)

	// A deadline the full f2a sweep cannot meet: expect the goroutine
	// dump and exit status 3 instead of a hang.
	cmd := exec.Command(bin, "-experiment", "f2a", "-deadline", "1ms")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("want exit status 3, got %v\n%s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "deadline 1ms exceeded") || !strings.Contains(out, "goroutine") {
		t.Errorf("deadline dump missing:\n%s", out)
	}

	// A generous deadline must not perturb a normal run.
	if out, err := exec.Command(bin, "-experiment", "a3", "-deadline", "10m", "-format", "csv").Output(); err != nil {
		t.Fatalf("run with generous deadline: %v", err)
	} else if !strings.Contains(string(out), "a3,") {
		t.Errorf("output missing rows:\n%s", out)
	}
}

func TestLockbenchRejectsBadArgs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLockbench(t)
	if err := exec.Command(bin, "-experiment", "nonsense").Run(); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := exec.Command(bin, "-threads", "0,banana").Run(); err == nil {
		t.Error("bad thread list accepted")
	}
}

func TestLockbenchRegress(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLockbench(t)
	dir := t.TempDir()
	seed := filepath.Join(dir, "BENCH_seed.json")
	next := filepath.Join(dir, "BENCH_next.json")
	small := []string{"-regress", "-runs", "2", "-workers", "2", "-ops", "100"}

	// Measure a tiny baseline, then compare a second run against it: two
	// runs of identical code must not trip the gate. Two-sample runs on a
	// loaded CI host are far noisier than a real 5-run sweep, so the
	// throughput slack is opened wide — the deterministic ksim cells
	// still verify the exact-comparison path at zero tolerance.
	if out, err := exec.Command(bin, append(small, "-regress-out", seed)...).CombinedOutput(); err != nil {
		t.Fatalf("baseline run: %v\n%s", err, out)
	}
	if _, err := os.Stat(seed); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	out, err := exec.Command(bin, append(small, "-slack", "95", "-baseline", seed, "-regress-out", next)...).CombinedOutput()
	if err != nil {
		t.Fatalf("compare run regressed or failed: %v\n%s", err, out)
	}
	for _, want := range []string{"verdict", "mcs", "sim-qspin", "no significant regression"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("regress output missing %q:\n%s", want, out)
		}
	}

	// A corrupt baseline is an I/O error (exit 1), not a crash.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	err = exec.Command(bin, append(small, "-baseline", bad, "-regress-out", next)...).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("corrupt baseline: want exit 1, got %v", err)
	}
}

// TestLockbenchSchedFuzzReplayLoop drives the acceptance loop through
// the binary: a seeded fuzz run that fails exits 5 and writes a
// schedule file, and -replay deterministically reproduces the same
// failure from it.
func TestLockbenchSchedFuzzReplayLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLockbench(t)
	dir := t.TempDir()
	sched := filepath.Join(dir, "fail.schedule.json")

	exitCode := func(err error) int {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			return -1
		}
		return 0
	}

	// Seed 3 trips the selftest invariant on iteration 0.
	var out bytes.Buffer
	cmd := exec.Command(bin, "-schedfuzz", "selftest", "-seed", "3",
		"-schedfuzz-iters", "32", "-schedule-out", sched, "-flight-dir", dir)
	cmd.Stderr = &out
	if code := exitCode(cmd.Run()); code != 5 {
		t.Fatalf("fuzz run exit %d, want 5:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "seed=3") {
		t.Errorf("run did not print its seed:\n%s", out.String())
	}
	if _, err := os.Stat(sched); err != nil {
		t.Fatalf("schedule file not written: %v", err)
	}
	bundles, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(bundles) == 0 {
		t.Error("no flight bundle written")
	}

	out.Reset()
	cmd = exec.Command(bin, "-replay", sched)
	cmd.Stderr = &out
	if code := exitCode(cmd.Run()); code != 5 {
		t.Fatalf("replay exit %d, want 5 (reproduced failure):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "replay FAILED") {
		t.Errorf("replay did not report the failure:\n%s", out.String())
	}

	// A clean deterministic target exits 0.
	out.Reset()
	cmd = exec.Command(bin, "-schedfuzz", "seq-lock", "-seed", "7")
	cmd.Stderr = &out
	if code := exitCode(cmd.Run()); code != 0 {
		t.Fatalf("seq-lock exit %d, want 0:\n%s", code, out.String())
	}

	// Unknown target is a usage error, not a crash.
	if code := exitCode(exec.Command(bin, "-schedfuzz", "bogus").Run()); code != 2 {
		t.Fatalf("unknown target exit %d, want 2", code)
	}
}
