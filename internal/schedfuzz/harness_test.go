package schedfuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/core"
)

// hangTarget wedges until the channel installed by the current test
// closes — the deadline path's test double.
type hangTarget struct{ ch atomic.Pointer[chan struct{}] }

func (h *hangTarget) Name() string             { return "hang-test" }
func (h *hangTarget) Params() map[string]int64 { return nil }
func (h *hangTarget) Run(env *Env, _ map[string]int64) error {
	env.F.Point("hang.enter")
	if ch := h.ch.Load(); ch != nil {
		<-*ch
	}
	return nil
}

var (
	hangOnce sync.Once
	hang     = &hangTarget{}
)

// registerHangTarget registers the shared hang target (the registry
// rejects duplicates) and installs a fresh release channel for this
// test, returning its closer.
func registerHangTarget() (release func()) {
	hangOnce.Do(func() { RegisterTarget(hang) })
	ch := make(chan struct{})
	hang.ch.Store(&ch)
	return func() { close(ch) }
}

// TestHarnessFailureEmitsScheduleAndBundle drives the full failure
// pipeline on the selftest target: a detected invariant violation must
// write a replayable schedule (with the failure recorded) and capture a
// "schedfuzz"-triggered flight bundle pointing at it; ReplayFile must
// then reproduce the identical failure.
func TestHarnessFailureEmitsScheduleAndBundle(t *testing.T) {
	dir := t.TempDir()
	schedPath := filepath.Join(dir, "fail.schedule.json")
	var out bytes.Buffer
	h, err := NewHarness(HarnessConfig{
		Seed:        3, // fails at iteration 0 (pinned by the selftest smoke)
		Target:      "selftest",
		Iterations:  32,
		ScheduleOut: schedPath,
		FlightDir:   dir,
		Out:         &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatalf("selftest campaign did not fail in 32 iterations:\n%s", out.String())
	}
	if !IsInvariant(res.Err) {
		t.Fatalf("failure not an invariant violation: %v", res.Err)
	}
	if res.SchedulePath != schedPath {
		t.Fatalf("schedule path %q, want %q", res.SchedulePath, schedPath)
	}

	s, err := ReadSchedule(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failure == nil || s.Failure.Kind != "invariant" || s.Failure.Iter != res.Iter {
		t.Fatalf("schedule failure record wrong: %+v", s.Failure)
	}
	if s.Target != "selftest" || s.Seed != res.Seed {
		t.Fatalf("schedule identity wrong: target=%q seed=%d", s.Target, s.Seed)
	}

	if len(res.FlightBundles) == 0 {
		t.Fatal("no flight bundle captured")
	}
	b, err := core.ReadFlightBundle(res.FlightBundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "schedfuzz" {
		t.Fatalf("bundle trigger %q, want schedfuzz", b.Trigger)
	}
	if b.SchedulePath != schedPath {
		t.Fatalf("bundle schedule path %q, want %q", b.SchedulePath, schedPath)
	}
	if !strings.Contains(b.Error, "invariant violated") {
		t.Fatalf("bundle error %q missing the violation", b.Error)
	}

	// The acceptance loop: replay reproduces the same failure.
	rres, err := ReplayFile(schedPath, ReplayOptions{Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Failed || !rres.Reproduced {
		t.Fatalf("replay did not reproduce: failed=%v reproduced=%v err=%v",
			rres.Failed, rres.Reproduced, rres.Err)
	}
	if rres.Err.Error() != res.Err.Error() {
		t.Fatalf("replayed failure diverged: %q vs %q", rres.Err, res.Err)
	}
}

// TestHarnessDeadline pins the per-iteration deadline: a wedged target
// fails with kind "deadline", the schedule carries a failure record,
// and the flight bundle embeds a goroutine dump naming the wedge.
func TestHarnessDeadline(t *testing.T) {
	release := registerHangTarget()
	defer release()
	dir := t.TempDir()
	h, err := NewHarness(HarnessConfig{
		Seed:      1,
		Target:    "hang-test",
		Deadline:  50 * time.Millisecond,
		FlightDir: dir,
		Out:       &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("wedged target did not trip the deadline")
	}
	s, err := ReadSchedule(res.SchedulePath)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failure == nil || s.Failure.Kind != "deadline" {
		t.Fatalf("failure kind %+v, want deadline", s.Failure)
	}
	if len(res.FlightBundles) == 0 {
		t.Fatal("no flight bundle for deadline trip")
	}
	b, err := core.ReadFlightBundle(res.FlightBundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "schedfuzz" || !strings.Contains(b.Goroutines, "hangTarget") {
		t.Fatalf("bundle trigger=%q, goroutine dump names wedge: %v",
			b.Trigger, strings.Contains(b.Goroutines, "hangTarget"))
	}
}

// TestHarnessUnknownTarget pins the operational-error path.
func TestHarnessUnknownTarget(t *testing.T) {
	if _, err := NewHarness(HarnessConfig{Target: "no-such-target"}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// TestHarnessIterSeedDerivation pins the printed-seed contract:
// iteration 0 uses the campaign seed verbatim and later iterations
// derive distinct deterministic seeds.
func TestHarnessIterSeedDerivation(t *testing.T) {
	if iterSeed(42, 0) != 42 {
		t.Fatal("iteration 0 must use the campaign seed verbatim")
	}
	seen := map[uint64]bool{42: true}
	for i := 1; i < 100; i++ {
		s := iterSeed(42, i)
		if s != iterSeed(42, i) {
			t.Fatal("iterSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("iteration %d reuses an earlier seed", i)
		}
		seen[s] = true
	}
}

// TestHarnessWritesScheduleOnSuccess: -schedule-out emits the final
// clean log too (the input for hand-crafting regression schedules).
func TestHarnessWritesScheduleOnSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.schedule.json")
	h, err := NewHarness(HarnessConfig{
		Seed:        7,
		Target:      "seq-lock",
		ScheduleOut: path,
		Out:         &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("seq-lock failed: %v", res.Err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("clean schedule not written: %v", err)
	}
	s, err := ReadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failure != nil {
		t.Fatalf("clean schedule carries a failure: %+v", s.Failure)
	}
}
