//go:build perfgate

package experiments

// The wall-clock floors of the hook-plane and optimistic-read cells. A
// ratio of two timed loops on a shared host is a measurement, not a
// functional property: it swings with whatever else the host runs, so
// these gates are built only with -tags perfgate (CI's speedup steps) and
// tier-1 keeps the functional halves (TestHookPlaneJITRuns,
// TestOCCReadHeavyValidates).

import (
	"testing"

	"concord/internal/locks"
)

// TestHookPlaneJITSpeedup is the acceptance gate for the JIT closure
// tier on the profiled-shuffler cell: the lowered closure must beat
// the interpreter by at least 1.5× on the same hook-fire work, and it
// must not allocate. Best-of-3 on each side absorbs scheduler noise on
// loaded CI hosts, and the six runs alternate vm/jit so that one burst on
// the host lands on both sides rather than on all of one side's runs;
// the real ratio is well above the gate.
func TestHookPlaneJITSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock gate: the race detector's slowdown is not uniform across what is compared")
	}
	const ops = 200_000
	vmFire, jitFire := HookPlaneFire("vm"), HookPlaneFire("jit")
	var vm, jit float64
	for i := 0; i < 3; i++ {
		vm = max(vm, HookPlaneOpsPerMSec(vmFire, ops))
		jit = max(jit, HookPlaneOpsPerMSec(jitFire, ops))
	}
	if vm <= 0 || jit <= 0 {
		t.Fatalf("degenerate measurement: vm=%.1f jit=%.1f", vm, jit)
	}
	ratio := jit / vm
	t.Logf("hook_plane: vm=%.0f ops/ms, jit=%.0f ops/ms, speedup=%.2fx", vm, jit, ratio)
	if ratio < 1.5 {
		t.Errorf("JIT speedup %.2fx below the 1.5x acceptance floor", ratio)
	}
}

// TestOCCReadHeavySpeedup is the acceptance gate for the optimistic
// read tier: on the read-dominated mix, sequence-validated speculation
// must beat the pessimistic read lock by at least 1.5×. Best-of-3 on
// each side absorbs scheduler noise on loaded CI hosts; the real ratio
// is well above the gate.
func TestOCCReadHeavySpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock gate: the race detector's slowdown is not uniform across what is compared")
	}
	best := func(mode locks.OCCMode) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if v := runOCCReadHeavy(mode, false).OpsPerMSec(); v > b {
				b = v
			}
		}
		return b
	}
	off := best(locks.OCCOff)
	on := best(locks.OCCOn)
	if off <= 0 || on <= 0 {
		t.Fatalf("degenerate measurement: off=%.1f on=%.1f", off, on)
	}
	ratio := on / off
	t.Logf("occ_read_heavy: pessimistic=%.0f ops/ms, speculative=%.0f ops/ms, speedup=%.2fx", off, on, ratio)
	if ratio < 1.5 {
		t.Errorf("OCC speedup %.2fx below the 1.5x acceptance floor", ratio)
	}
}
