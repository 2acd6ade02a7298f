package schedfuzz

import (
	"bytes"
	"testing"
)

// runSeqLock executes the deterministic seq-lock target once and
// returns the canonical schedule bytes.
func runSeqLock(t *testing.T, seed uint64, strategy string) []byte {
	t.Helper()
	h, err := NewHarness(HarnessConfig{
		Seed:     seed,
		Strategy: strategy,
		Target:   "seq-lock",
		Out:      &bytes.Buffer{},
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
	data, err := res.Schedule.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSameSeedByteIdenticalLog is the determinism contract (DESIGN.md
// §9): the same seed against the same target produces a byte-identical
// schedule log across independent runs. seq-lock is single-goroutine,
// so every site fires a deterministic number of times and the whole
// log — not just each per-site stream — is pinned. Run under -race in
// CI (the schedfuzz jobs), where scheduling noise is maximal.
func TestSameSeedByteIdenticalLog(t *testing.T) {
	for _, strategy := range []string{"random", "pct", "targeted"} {
		a := runSeqLock(t, 12345, strategy)
		b := runSeqLock(t, 12345, strategy)
		if !bytes.Equal(a, b) {
			t.Errorf("strategy %s: same seed produced different logs:\n--- run 1\n%s\n--- run 2\n%s",
				strategy, a, b)
		}
	}
	// And different seeds must diverge, or the log carries no signal.
	if bytes.Equal(runSeqLock(t, 12345, "random"), runSeqLock(t, 54321, "random")) {
		t.Error("different seeds produced identical logs")
	}
}

// TestReplayMatchesRecording closes the loop: replaying a recorded
// seq-lock schedule re-records a log byte-identical to the original.
func TestReplayMatchesRecording(t *testing.T) {
	original := runSeqLock(t, 777, "random")
	s, err := UnmarshalSchedule(original)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(s, ReplayOptions{Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("replay failed on a clean recording: %v", res.Err)
	}
	replayed, err := res.Schedule.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original, replayed) {
		t.Fatalf("replayed log diverged from recording:\n--- recorded\n%s\n--- replayed\n%s",
			original, replayed)
	}
}
