package jit_test

import (
	"errors"
	"testing"

	"concord/internal/faultinject"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
)

func verify(t *testing.T, p *policy.Program) *policy.Program {
	t.Helper()
	if _, err := policy.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

// buildFn wraps a builder constructor into a DiffHarness build func
// that verifies each fresh copy.
func buildFn(mk func() *policy.Builder) func() (*policy.Program, error) {
	return func() (*policy.Program, error) {
		p, err := mk().Program()
		if err != nil {
			return nil, err
		}
		if _, err := policy.Verify(p); err != nil {
			return nil, err
		}
		return p, nil
	}
}

func mkEnv() *policy.TestEnv {
	e := &policy.TestEnv{
		CPUID: 2, NUMA: 1, Task: 77, Prio: -3,
		LockStats: map[uint64]uint64{1: 500, 2: 42},
	}
	e.Now.Store(123456789)
	return e
}

// ctxVectors exercises normal, boundary, short, and empty context word
// slices (short/empty trip the VM's runtime ctx bounds check — the JIT
// must fault identically).
func ctxVectors(n int) [][]uint64 {
	full := make([]uint64, n)
	for i := range full {
		full[i] = uint64(i*3 + 1)
	}
	vary := make([]uint64, n)
	for i := range vary {
		vary[i] = ^uint64(0) - uint64(i)
	}
	return [][]uint64{full, vary, full[:1], {}}
}

func TestDiffCorePrograms(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *policy.Builder
	}{
		{"alu-mix", func() *policy.Builder {
			b := policy.NewBuilder("alu-mix", policy.KindLockAcquire)
			b.LoadCtx(policy.R2, policy.R1, "queue_len").
				MovImm(policy.R3, 7).
				ALUReg(policy.OpMulReg, policy.R2, policy.R3).
				ALUImm(policy.OpAddImm, policy.R2, -13).
				ALUImm(policy.OpXorImm, policy.R2, 0x5a5a).
				ALUImm(policy.OpLshImm, policy.R2, 3).
				ALUImm(policy.OpRshImm, policy.R2, 1).
				ALUImm(policy.OpArshImm, policy.R2, 2).
				Neg(policy.R2).
				ReturnReg(policy.R2)
			return b
		}},
		{"div-mod-zero", func() *policy.Builder {
			b := policy.NewBuilder("div-mod-zero", policy.KindLockAcquire)
			b.LoadCtx(policy.R2, policy.R1, "lock_id").
				MovImm(policy.R3, 100).
				ALUReg(policy.OpDivReg, policy.R3, policy.R2).
				MovImm(policy.R4, 100).
				ALUReg(policy.OpModReg, policy.R4, policy.R2).
				ALUReg(policy.OpAddReg, policy.R3, policy.R4).
				ReturnReg(policy.R3)
			return b
		}},
		{"jump-ladder", func() *policy.Builder {
			b := policy.NewBuilder("jump-ladder", policy.KindLockAcquire)
			b.LoadCtx(policy.R2, policy.R1, "prio").
				JmpImm(policy.OpJsgtImm, policy.R2, 5, "hi").
				JmpImm(policy.OpJsltImm, policy.R2, -5, "lo").
				ReturnImm(0).
				Label("hi").ReturnImm(1).
				Label("lo").ReturnImm(2)
			return b
		}},
		{"jset-reg", func() *policy.Builder {
			b := policy.NewBuilder("jset-reg", policy.KindLockAcquire)
			b.LoadCtx(policy.R2, policy.R1, "lock_id").
				MovImm(policy.R3, 0b1010).
				JmpReg(policy.OpJsetReg, policy.R2, policy.R3, "set").
				ReturnImm(0).
				Label("set").ReturnImm(1)
			return b
		}},
		{"stack-roundtrip", func() *policy.Builder {
			b := policy.NewBuilder("stack-roundtrip", policy.KindLockAcquire)
			b.LoadCtx(policy.R2, policy.R1, "now_ns").
				StoreStackReg(policy.OpStxDW, -8, policy.R2).
				StoreStackImm(policy.OpStW, -16, 0x11223344).
				StoreStackImm(policy.OpStH, -12, 0x5566).
				StoreStackImm(policy.OpStB, -10, 0x77).
				StoreStackImm(policy.OpStB, -9, 0x1f).
				LoadStack(policy.OpLdxDW, policy.R3, -16).
				LoadStack(policy.OpLdxB, policy.R4, -8).
				ALUReg(policy.OpXorReg, policy.R3, policy.R4).
				ReturnReg(policy.R3)
			return b
		}},
		{"env-helpers", func() *policy.Builder {
			b := policy.NewBuilder("env-helpers", policy.KindLockAcquire)
			b.Call(policy.HelperKtimeNS).
				MovReg(policy.R6, policy.R0).
				Call(policy.HelperCPU).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				Call(policy.HelperNUMANode).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				Call(policy.HelperTaskID).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				Call(policy.HelperTaskPrio).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				ReturnReg(policy.R6)
			return b
		}},
		{"rand-trace", func() *policy.Builder {
			b := policy.NewBuilder("rand-trace", policy.KindLockAcquire)
			b.Call(policy.HelperRand).
				MovReg(policy.R6, policy.R0).
				MovReg(policy.R1, policy.R6).
				Call(policy.HelperTrace).
				ReturnReg(policy.R6)
			return b
		}},
		{"lock-stats", func() *policy.Builder {
			b := policy.NewBuilder("lock-stats", policy.KindLockAcquire)
			b.MovImm(policy.R1, 1).
				Call(policy.HelperLockStats).
				MovReg(policy.R6, policy.R0).
				MovImm(policy.R1, 9). // unseeded field -> 0
				Call(policy.HelperLockStats).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				ReturnReg(policy.R6)
			return b
		}},
		{"occ-set", func() *policy.Builder {
			// Promote, promote again (no change), demote: the edge
			// semantics of the tier CAS must agree across tiers.
			b := policy.NewBuilder("occ-set", policy.KindLockAcquire)
			b.MovImm(policy.R1, 1).
				Call(policy.HelperOCCSet).
				MovReg(policy.R6, policy.R0).
				MovImm(policy.R1, 1).
				Call(policy.HelperOCCSet).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				MovImm(policy.R1, 0).
				Call(policy.HelperOCCSet).
				ALUReg(policy.OpAddReg, policy.R6, policy.R0).
				ReturnReg(policy.R6)
			return b
		}},
		{"hash-add-lookup", func() *policy.Builder {
			m := policy.NewHashMap("counts", 8, 8, 64)
			b := policy.NewBuilder("hash-add-lookup", policy.KindLockAcquire)
			b.MovReg(policy.R6, policy.R1).
				LoadCtx(policy.R2, policy.R6, "socket").
				StoreStackReg(policy.OpStxDW, -8, policy.R2).
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -8).
				MovImm(policy.R3, 1).
				Call(policy.HelperMapAdd).
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -8).
				Call(policy.HelperMapLookup).
				JmpImm(policy.OpJneImm, policy.R0, 0, "hit").
				ReturnImm(0).
				Label("hit").
				LoadStack(policy.OpLdxDW, policy.R3, -8). // force insn count past branch
				Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R4, Src: policy.R0, Off: 0}).
				ReturnReg(policy.R4)
			return b
		}},
		{"map-value-store", func() *policy.Builder {
			m := policy.NewHashMap("vals", 8, 16, 32)
			b := policy.NewBuilder("map-value-store", policy.KindLockAcquire)
			b.MovReg(policy.R6, policy.R1).
				LoadCtx(policy.R2, policy.R6, "lock_id").
				StoreStackReg(policy.OpStxDW, -8, policy.R2).
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -8).
				MovImm(policy.R3, 5).
				Call(policy.HelperMapAdd).
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -8).
				Call(policy.HelperMapLookup).
				JmpImm(policy.OpJeqImm, policy.R0, 0, "miss").
				Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R3, Src: policy.R0, Off: 0}).
				ALUImm(policy.OpMulImm, policy.R3, 3).
				Raw(policy.Instruction{Op: policy.OpStxDW, Dst: policy.R0, Src: policy.R3, Off: 8}).
				ReturnReg(policy.R3).
				Label("miss").ReturnImm(0)
			return b
		}},
		{"update-delete", func() *policy.Builder {
			m := policy.NewHashMap("kv", 8, 8, 32)
			b := policy.NewBuilder("update-delete", policy.KindLockAcquire)
			b.MovReg(policy.R6, policy.R1).
				LoadCtx(policy.R2, policy.R6, "task_id").
				StoreStackReg(policy.OpStxDW, -8, policy.R2).
				LoadCtx(policy.R3, policy.R6, "now_ns").
				StoreStackReg(policy.OpStxDW, -16, policy.R3).
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -8).
				MovReg(policy.R3, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R3, -16).
				Call(policy.HelperMapUpdate).
				MovReg(policy.R7, policy.R0).
				LoadCtx(policy.R2, policy.R6, "queue_len").
				JmpImm(policy.OpJgtImm, policy.R2, 4, "del").
				ReturnReg(policy.R7).
				Label("del").
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -8).
				Call(policy.HelperMapDelete).
				ReturnReg(policy.R0)
			return b
		}},
		{"percpu-array", func() *policy.Builder {
			m := policy.NewPerCPUArrayMap("slots", 8, 4, 4)
			b := policy.NewBuilder("percpu-array", policy.KindLockAcquire)
			b.MovReg(policy.R6, policy.R1).
				StoreStackImm(policy.OpStW, -4, 1).
				LoadMapPtr(policy.R1, m).
				MovReg(policy.R2, policy.RFP).
				ALUImm(policy.OpAddImm, policy.R2, -4).
				MovImm(policy.R3, 3).
				Call(policy.HelperMapAdd).
				ReturnReg(policy.R0)
			return b
		}},
		{"ctx-short", func() *policy.Builder {
			// Reads a high ctx slot: faults "ctx load out of bounds"
			// when the harness passes a short word vector.
			b := policy.NewBuilder("ctx-short", policy.KindLockAcquire)
			b.LoadCtx(policy.R2, policy.R1, "prio").
				ReturnReg(policy.R2)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := jit.NewDiffHarness(buildFn(tc.mk), mkEnv)
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			n := len(policy.LayoutFor(policy.KindLockAcquire).Fields)
			if err := h.Run(ctxVectors(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFaultInjectionParity(t *testing.T) {
	mk := func() *policy.Builder {
		m := policy.NewHashMap("c", 8, 8, 16)
		b := policy.NewBuilder("fi", policy.KindLockAcquire)
		b.MovReg(policy.R6, policy.R1).
			LoadCtx(policy.R2, policy.R6, "lock_id").
			StoreStackReg(policy.OpStxDW, -8, policy.R2).
			LoadMapPtr(policy.R1, m).
			MovReg(policy.R2, policy.RFP).
			ALUImm(policy.OpAddImm, policy.R2, -8).
			MovImm(policy.R3, 1).
			Call(policy.HelperMapAdd).
			ReturnReg(policy.R0)
		return b
	}
	sites := []*faultinject.Site{faultinject.PolicyTrap, faultinject.PolicyHelper, faultinject.PolicyMapOp}
	for _, site := range sites {
		t.Run(site.Name(), func(t *testing.T) {
			h, err := jit.NewDiffHarness(buildFn(mk), mkEnv)
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			site.Arm(faultinject.Config{Probability: 1})
			defer site.Disarm()
			n := len(policy.LayoutFor(policy.KindLockAcquire).Fields)
			if err := h.Step(make([]uint64, n)); err != nil {
				t.Fatal(err)
			}
			site.Disarm()
			if err := h.Step(make([]uint64, n)); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKindMismatchParity(t *testing.T) {
	p := verify(t, policy.NewBuilder("km", policy.KindLockAcquire).ReturnImm(1).MustProgram())
	fn, err := jit.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	wrong := policy.NewCtx(policy.KindCmpNode)
	_, vmErr := policy.Exec(p, wrong, nil)
	_, jitErr := fn(wrong, nil)
	if vmErr == nil || jitErr == nil || vmErr.Error() != jitErr.Error() {
		t.Fatalf("vm err %v, jit err %v", vmErr, jitErr)
	}
	_, jitNil := fn(nil, nil)
	if jitNil == nil || jitNil.Error() != vmErr.Error() {
		t.Fatalf("nil ctx: jit err %v, want %v", jitNil, vmErr)
	}
}

func TestCompileRequiresVerification(t *testing.T) {
	p := policy.NewBuilder("unverified", policy.KindLockAcquire).ReturnImm(0).MustProgram()
	if _, err := jit.Compile(p); !errors.Is(err, policy.ErrNotVerified) {
		t.Fatalf("err = %v, want ErrNotVerified", err)
	}
}

func TestJITRunsCounter(t *testing.T) {
	p := verify(t, policy.NewBuilder("ctr", policy.KindLockAcquire).ReturnImm(7).MustProgram())
	fn, err := jit.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := policy.NewCtx(policy.KindLockAcquire)
	if _, err := policy.Exec(p, ctx, nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().JITRuns.Load(); got != 0 {
		t.Fatalf("JITRuns after VM run = %d, want 0", got)
	}
	if ret, err := fn(ctx, nil); err != nil || ret != 7 {
		t.Fatalf("jit run = (%d, %v)", ret, err)
	}
	if got := p.Stats().JITRuns.Load(); got != 1 {
		t.Fatalf("JITRuns after jit run = %d, want 1", got)
	}
	if got := p.Stats().Runs.Load(); got != 2 {
		t.Fatalf("Runs = %d, want 2", got)
	}
}

func TestChoose(t *testing.T) {
	p := verify(t, policy.NewBuilder("choose", policy.KindLockAcquire).ReturnImm(1).MustProgram())
	if c := jit.Choose(p, nil); c.Tier != jit.TierVM || c.Fn != nil {
		t.Fatalf("nil report: got tier %s", c.Tier)
	}
	if c := jit.Choose(p, &analysis.Report{CostBound: jit.MaxJITCostNS + 1}); c.Tier != jit.TierVM {
		t.Fatalf("huge cost: got tier %s", c.Tier)
	}
	rep, err := analysis.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	c := jit.Choose(p, rep)
	if c.Tier != jit.TierJIT || c.Fn != nil || c.TreeFor(p) == nil {
		t.Fatalf("got tier %s (%s, %s), want jit served by a tree alone", c.Tier, c.Reason, c.Lowering())
	}
	// A program outside the tree grammar is lowered to closures.
	p = verify(t, policy.NewBuilder("choose", policy.KindLockAcquire).
		Call(policy.HelperKtimeNS).ReturnImm(1).MustProgram())
	if rep, err = analysis.Analyze(p); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	c = jit.Choose(p, rep)
	if c.Tier != jit.TierJIT || c.Fn == nil {
		t.Fatalf("got tier %s (%s), want jit", c.Tier, c.Reason)
	}
	ctx := policy.NewCtx(policy.KindLockAcquire)
	if ret, err := c.Fn(ctx, nil); err != nil || ret != 1 {
		t.Fatalf("chosen fn = (%d, %v)", ret, err)
	}
}

func TestJITZeroAlloc(t *testing.T) {
	// The profiled-shuffler shape: ctx load, stack spill, map_add into
	// a hash map, socket compare. This is the hook hot path the tier
	// exists for; it must not allocate.
	m := policy.NewHashMap("exams", 8, 8, 128)
	b := policy.NewBuilder("hot", policy.KindCmpNode)
	b.MovReg(policy.R6, policy.R1).
		LoadCtx(policy.R2, policy.R6, "curr_socket").
		StoreStackReg(policy.OpStxDW, -8, policy.R2).
		LoadMapPtr(policy.R1, m).
		MovReg(policy.R2, policy.RFP).
		ALUImm(policy.OpAddImm, policy.R2, -8).
		MovImm(policy.R3, 1).
		Call(policy.HelperMapAdd).
		LoadCtx(policy.R2, policy.R6, "curr_socket").
		LoadCtx(policy.R3, policy.R6, "shuffler_socket").
		JmpReg(policy.OpJeqReg, policy.R2, policy.R3, "grp").
		ReturnImm(0).
		Label("grp").ReturnImm(1)
	p := verify(t, b.MustProgram())
	fn, err := jit.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := policy.NewCtx(policy.KindCmpNode)
	ctx.Set("curr_socket", 1).Set("shuffler_socket", 1)
	env := mkEnv()
	if ret, err := fn(ctx, env); err != nil || ret != 1 {
		t.Fatalf("warmup = (%d, %v)", ret, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := fn(ctx, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs/op = %g, want 0", allocs)
	}
}

func TestInsnAccountingParity(t *testing.T) {
	// Both arms of a branch, plus the fault path, must fold the same
	// instruction counts the interpreter does.
	mk := func() *policy.Builder {
		b := policy.NewBuilder("acct", policy.KindLockAcquire)
		b.LoadCtx(policy.R2, policy.R1, "queue_len").
			JmpImm(policy.OpJgtImm, policy.R2, 10, "deep").
			MovImm(policy.R3, 1).
			ALUReg(policy.OpAddReg, policy.R3, policy.R2).
			ReturnReg(policy.R3).
			Label("deep").ReturnImm(99)
		return b
	}
	h, err := jit.NewDiffHarness(buildFn(mk), mkEnv)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	n := len(policy.LayoutFor(policy.KindLockAcquire).Fields)
	vecs := [][]uint64{make([]uint64, n), func() []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = 100
		}
		return v
	}(), {}}
	if err := h.Run(vecs); err != nil {
		t.Fatal(err)
	}
}
