package experiments

import "testing"

// TestHookPlaneJITRuns is the functional half of the hook-plane gate
// (its wall-clock floor, TestHookPlaneJITSpeedup, is built with -tags
// perfgate): the "jit" cell runs its program on the JIT tier, every fire
// counted as a JIT run, and decides exactly as the interpreter does.
func TestHookPlaneJITRuns(t *testing.T) {
	vmFire := HookPlaneFire("vm")
	jitFire, prog := hookPlane("jit")
	const fires = 64
	for i := uint64(0); i < fires; i++ {
		s, c := i&3, i&7
		if vm, jit := vmFire(s, c), jitFire(s, c); vm != jit {
			t.Errorf("sockets (%d, %d): jit decided %v, vm %v", s, c, jit, vm)
		}
	}
	if st := prog.Stats(); st.JITRuns.Load() != fires || st.Runs.Load() != fires {
		t.Errorf("jit cell: %d runs, %d on the JIT tier, want %d each", st.Runs.Load(), st.JITRuns.Load(), fires)
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
