package experiments

import "testing"

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

// TestHookPlaneJITZeroAllocs pins the other half of the contract: a
// JIT hook fire performs no heap allocation in steady state.
func TestHookPlaneJITZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so the closure tier's pooled machine is reallocated; the contract holds in normal builds")
	}
	if a := HookPlaneAllocsPerOp(HookPlaneFire("jit"), 4096); a != 0 {
		t.Errorf("JIT hook fire allocates %.4f/op, want 0", a)
	}
}

// TestHookPlaneJITToggle pins the -jit=off ablation: with the tier
// disabled, the "jit" cell falls back to the interpreter (no closure
// is compiled), and re-enabling restores it.
func TestHookPlaneJITToggle(t *testing.T) {
	SetJIT(false)
	defer SetJIT(true)
	fire := HookPlaneFire("jit")
	// Interpreter fallback still computes the same decisions.
	if !fire(2, 2) || fire(1, 2) {
		t.Error("ablation closure decisions wrong")
	}
	if a := HookPlaneAllocsPerOp(fire, 512); a == 0 {
		t.Log("interpreter path also reads 0 allocs/op on this host")
	}
}
