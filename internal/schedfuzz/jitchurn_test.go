package schedfuzz

import (
	"bytes"
	"testing"
)

// runJITChurn executes the jit-churn target once with small parameters
// and returns the canonical schedule bytes.
func runJITChurn(t *testing.T, seed uint64) []byte {
	t.Helper()
	h, err := NewHarness(HarnessConfig{
		Seed:   seed,
		Target: "jit-churn",
		Params: map[string]int64{"workers": 2, "ops": 80, "flips": 6},
		Out:    &bytes.Buffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("jit-churn failed: %v", res.Err)
	}
	data, err := res.Schedule.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJITChurnDeterminism extends the §9 determinism contract through
// the JIT tier: the same seed drives the same tier flips and fault streams
// over policies served as decision trees, and the recorded log is
// byte-identical across runs — tree execution introduces no schedule
// nondeterminism the VM tier didn't have.
func TestJITChurnDeterminism(t *testing.T) {
	a := runJITChurn(t, 424242)
	b := runJITChurn(t, 424242)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different jit-churn logs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestJITChurnRegression replays the canned jit-churn schedule in
// testdata (regenerate with `go run ./internal/schedfuzz/testdata/genjit.go`):
// JIT-tier policies on a blocking ShflLock under forced parks, park
// delays and dropped wakeups, with the attachment livepatch-flipped
// between auto and forced-VM mid-traffic. The target's
// invariants (op conservation, lock safety, zero faults, hook runs
// recorded) must hold on replay, and the re-recorded log byte-matches
// the canned file — same-seed replay is byte-identical through the
// JIT tier.
func TestJITChurnRegression(t *testing.T) {
	s, err := ReadSchedule("testdata/jit_churn.schedule.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Target != "jit-churn" {
		t.Fatalf("canned schedule targets %q, want jit-churn", s.Target)
	}
	if s.Params["flips"] != 6 || s.Params["workers"] != 2 {
		t.Fatalf("canned schedule lost its shape: %+v", s.Params)
	}

	res, err := Replay(s, ReplayOptions{Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("jit-churn invariants regressed: %v", res.Err)
	}

	canned, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := res.Schedule.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canned, replayed) {
		t.Fatal("replayed jit-churn log diverged from the canned schedule")
	}
}
