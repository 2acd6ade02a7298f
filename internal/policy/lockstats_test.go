package policy

import (
	"strings"
	"testing"
)

// lockStatsProg returns R0 = lock_stats_read(field).
func lockStatsProg(t *testing.T, kind Kind, field int64) *Program {
	t.Helper()
	p, err := NewBuilder("lockstats", kind).
		MovImm(R1, field).
		Call(HelperLockStats).
		Exit().
		Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLockStatsHelperVerifiesOnShufflerPath(t *testing.T) {
	// lock_stats_read is read-only, so even the restricted shuffler-path
	// kinds admit it.
	for _, kind := range []Kind{KindCmpNode, KindSkipShuffle, KindScheduleWaiter, KindLockAcquired} {
		p := lockStatsProg(t, kind, 2)
		if _, err := Verify(p); err != nil {
			t.Errorf("kind %v: %v", kind, err)
		}
	}
}

func TestLockStatsHelperReadsEnv(t *testing.T) {
	p := lockStatsProg(t, KindCmpNode, 2)
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	env := &TestEnv{LockStats: map[uint64]uint64{2: 12345}}
	got, err := Exec(p, NewCtx(p.Kind), env)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12345 {
		t.Errorf("lock_stats_read(2) = %d, want 12345", got)
	}
	// Unknown field reads 0, not an error.
	p9 := lockStatsProg(t, KindCmpNode, 999)
	if _, err := Verify(p9); err != nil {
		t.Fatal(err)
	}
	if got, err := Exec(p9, NewCtx(p9.Kind), env); err != nil || got != 0 {
		t.Errorf("lock_stats_read(999) = %d, %v; want 0, nil", got, err)
	}
}

func TestLockStatsHelperWithoutReaderReadsZero(t *testing.T) {
	// realEnv does not implement LockStatReader: the helper must
	// degrade to 0 rather than fail, so profile-gated policies run on
	// plain environments.
	p := lockStatsProg(t, KindCmpNode, 0)
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	got, err := Exec(p, NewCtx(p.Kind), DefaultEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("lock_stats_read on plain env = %d, want 0", got)
	}
}

func TestLockStatsHelperNameRoundTrip(t *testing.T) {
	id, ok := HelperByName("lock_stats_read")
	if !ok || id != HelperLockStats {
		t.Fatalf("HelperByName = %v, %v", id, ok)
	}
	if HelperLockStats.String() != "lock_stats_read" {
		t.Fatalf("String = %q", HelperLockStats.String())
	}
	p := lockStatsProg(t, KindCmpNode, 0)
	if !strings.Contains(p.String(), "lock_stats_read") {
		t.Error("disassembly does not name the helper")
	}
}
