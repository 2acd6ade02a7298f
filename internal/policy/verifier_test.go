package policy

import (
	"strings"
	"testing"
	"unsafe"
)

func mustVerify(t *testing.T, p *Program) VerifyStats {
	t.Helper()
	stats, err := Verify(p)
	if err != nil {
		t.Fatalf("verify rejected valid program: %v", err)
	}
	if !p.Verified() {
		t.Fatal("Verified() false after successful Verify")
	}
	return stats
}

func wantReject(t *testing.T, p *Program, substr string) {
	t.Helper()
	_, err := Verify(p)
	if err == nil {
		t.Fatalf("verifier accepted bad program:\n%s", p)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("rejection %q does not mention %q", err, substr)
	}
	if p.Verified() {
		t.Fatal("Verified() true after failed Verify")
	}
}

func TestVerifyAcceptsMinimal(t *testing.T) {
	p := NewBuilder("min", KindCmpNode).ReturnImm(1).MustProgram()
	stats := mustVerify(t, p)
	if stats.Insns != 2 {
		t.Errorf("stats.Insns = %d, want 2", stats.Insns)
	}
}

// TestVerifyAcceptsRefinedOffset pins the one kind of program the
// walk's intervals admit that constant tracking alone did not: pointer
// arithmetic by a register a conditional jump proves constant. On the
// fall-through of `jne r2, 8`, r2 is 8, so fp - r2 is fp-8 (DESIGN §5).
func TestVerifyAcceptsRefinedOffset(t *testing.T) {
	p := NewBuilder("refined", KindCmpNode).
		MovReg(R6, R1).
		LoadCtx(R2, R6, "curr_cpu").
		JmpImm(OpJneImm, R2, 8, "out").
		StoreStackImm(OpStDW, -8, 1).
		MovReg(R3, RFP).
		SubReg(R3, R2).
		Raw(Instruction{Op: OpLdxDW, Dst: R0, Src: R3}).
		Exit().
		Label("out").
		ReturnImm(0).
		MustProgram()
	mustVerify(t, p)
	for cpu, want := range map[uint64]uint64{8: 1, 9: 0} {
		if got, err := Exec(p, NewCtx(KindCmpNode).Set("curr_cpu", cpu), nil); err != nil || got != want {
			t.Errorf("curr_cpu %d: got %d, %v; want %d", cpu, got, err, want)
		}
	}
}

// TestStateSize pins the per-pc State within 512 bytes: the pooled
// array of them is live heap in every workload that loads a policy.
func TestStateSize(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n > 512 {
		t.Fatalf("State is %d bytes, over the 512-byte budget", n)
	}
}

func TestVerifyRejections(t *testing.T) {
	m := NewArrayMap("m", 8, 4)
	cases := []struct {
		name   string
		substr string
		build  func() *Program
	}{
		{"empty", "empty program", func() *Program {
			return &Program{Name: "e", Kind: KindCmpNode}
		}},
		{"too-long", "too long", func() *Program {
			insns := make([]Instruction, MaxInsns+1)
			for i := range insns {
				insns[i] = Instruction{Op: OpMovImm, Dst: R0}
			}
			insns[len(insns)-1] = Instruction{Op: OpExit}
			return &Program{Name: "l", Kind: KindCmpNode, Insns: insns}
		}},
		{"bad-kind", "invalid program kind", func() *Program {
			return &Program{Name: "k", Kind: Kind(99), Insns: []Instruction{{Op: OpExit}}}
		}},
		{"fall-off-end", "falls off the end", func() *Program {
			return NewBuilder("f", KindCmpNode).MovImm(R0, 1).MustProgram()
		}},
		{"uninit-read", "uninitialized register", func() *Program {
			return NewBuilder("u", KindCmpNode).MovReg(R0, R5).Exit().MustProgram()
		}},
		{"uninit-r0-exit", "exit with R0", func() *Program {
			return NewBuilder("r0", KindCmpNode).Raw(Instruction{Op: OpExit}).MustProgram()
		}},
		{"write-fp", "frame pointer", func() *Program {
			return NewBuilder("fp", KindCmpNode).MovImm(RFP, 0).ReturnImm(0).MustProgram()
		}},
		{"backward-jump", "backward jump", func() *Program {
			return NewBuilder("b", KindCmpNode).
				Label("top").
				MovImm(R0, 1).
				Ja("top").
				Exit().
				MustProgram()
		}},
		{"jump-out-of-range", "falls off", func() *Program {
			return &Program{Name: "j", Kind: KindCmpNode, Insns: []Instruction{
				{Op: OpJa, Off: 100},
				{Op: OpExit},
			}}
		}},
		{"stack-oob-low", "outside frame", func() *Program {
			return NewBuilder("s", KindCmpNode).
				StoreStackImm(OpStDW, -(StackSize + 8), 1).
				ReturnImm(0).MustProgram()
		}},
		{"stack-oob-high", "outside frame", func() *Program {
			return NewBuilder("s2", KindCmpNode).
				StoreStackImm(OpStDW, 8, 1).
				ReturnImm(0).MustProgram()
		}},
		{"stack-read-uninit", "uninitialized stack", func() *Program {
			return NewBuilder("s3", KindCmpNode).
				LoadStack(OpLdxDW, R2, -8).
				ReturnImm(0).MustProgram()
		}},
		{"stack-read-partial-init", "uninitialized stack", func() *Program {
			return NewBuilder("s4", KindCmpNode).
				StoreStackImm(OpStW, -8, 1). // 4 of 8 bytes
				LoadStack(OpLdxDW, R2, -8).
				ReturnImm(0).MustProgram()
		}},
		{"ctx-write", "read-only", func() *Program {
			return NewBuilder("cw", KindCmpNode).
				MovImm(R2, 1).
				Raw(Instruction{Op: OpStxDW, Dst: R1, Src: R2, Off: 0}).
				ReturnImm(0).MustProgram()
		}},
		{"ctx-bad-offset", "does not match", func() *Program {
			return NewBuilder("co", KindCmpNode).
				Raw(Instruction{Op: OpLdxDW, Dst: R2, Src: R1, Off: 4}).
				ReturnImm(0).MustProgram()
		}},
		{"ctx-past-end", "does not match", func() *Program {
			off := int16(LayoutFor(KindCmpNode).Size())
			return NewBuilder("ce", KindCmpNode).
				Raw(Instruction{Op: OpLdxDW, Dst: R2, Src: R1, Off: off}).
				ReturnImm(0).MustProgram()
		}},
		{"ctx-narrow-load", "does not match", func() *Program {
			return NewBuilder("cn", KindCmpNode).
				Raw(Instruction{Op: OpLdxW, Dst: R2, Src: R1, Off: 0}).
				ReturnImm(0).MustProgram()
		}},
		{"map-deref-unchecked", "before null check", func() *Program {
			return NewBuilder("mu", KindLockAcquired).
				StoreStackImm(OpStW, -4, 0).
				LoadMapPtr(R1, m).
				MovReg(R2, RFP).
				AddImm(R2, -4).
				Call(HelperMapLookup).
				Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R0, Off: 0}).
				ReturnImm(0).MustProgram()
		}},
		{"map-value-oob", "map value load", func() *Program {
			return NewBuilder("mo", KindLockAcquired).
				StoreStackImm(OpStW, -4, 0).
				LoadMapPtr(R1, m).
				MovReg(R2, RFP).
				AddImm(R2, -4).
				Call(HelperMapLookup).
				JmpImm(OpJeqImm, R0, 0, "out").
				Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R0, Off: 8}). // value is 8 bytes
				Label("out").
				ReturnImm(0).MustProgram()
		}},
		{"map-value-unaligned", "map value load", func() *Program {
			return NewBuilder("ma", KindLockAcquired).
				StoreStackImm(OpStW, -4, 0).
				LoadMapPtr(R1, m).
				MovReg(R2, RFP).
				AddImm(R2, -4).
				Call(HelperMapLookup).
				JmpImm(OpJeqImm, R0, 0, "out").
				AddImm(R0, 4).
				Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R0, Off: 0}).
				Label("out").
				ReturnImm(0).MustProgram()
		}},
		{"map-index-oob", "map index", func() *Program {
			return NewBuilder("mi", KindLockAcquired).
				Raw(Instruction{Op: OpLoadMapPtr, Dst: R1, Imm: 3}).
				ReturnImm(0).MustProgram()
		}},
		{"unknown-helper", "unknown helper", func() *Program {
			return NewBuilder("uh", KindLockAcquired).
				Call(HelperID(999)).
				ReturnImm(0).MustProgram()
		}},
		{"helper-bad-arg", "want map pointer", func() *Program {
			return NewBuilder("ha", KindLockAcquired).
				MovImm(R1, 0).
				MovReg(R2, RFP).
				Call(HelperMapLookup).
				ReturnImm(0).MustProgram()
		}},
		{"helper-uninit-key", "uninitialized stack", func() *Program {
			return NewBuilder("hk", KindLockAcquired).
				LoadMapPtr(R1, m).
				MovReg(R2, RFP).
				AddImm(R2, -4).
				Call(HelperMapLookup).
				ReturnImm(0).MustProgram()
		}},
		{"mutation-in-shuffler-path", "not allowed", func() *Program {
			return NewBuilder("mp", KindCmpNode).
				StoreStackImm(OpStW, -4, 0).
				StoreStackImm(OpStDW, -16, 0).
				LoadMapPtr(R1, m).
				MovReg(R2, RFP).
				AddImm(R2, -4).
				MovReg(R3, RFP).
				AddImm(R3, -16).
				Call(HelperMapUpdate). // mutation helper in cmp_node
				ReturnImm(0).MustProgram()
		}},
		{"pointer-arith-bad-op", "arithmetic", func() *Program {
			return NewBuilder("pa", KindCmpNode).
				MovReg(R2, RFP).
				MulImm(R2, 3).
				ReturnImm(0).MustProgram()
		}},
		{"pointer-arith-unknown", "unknown offset", func() *Program {
			return NewBuilder("pu", KindCmpNode).
				MovReg(R6, R1).
				LoadCtx(R3, R6, "curr_cpu"). // unknown scalar
				MovReg(R2, RFP).
				AddReg(R2, R3).
				ReturnImm(0).MustProgram()
		}},
		{"cond-jump-on-pointer", "conditional jump on", func() *Program {
			return NewBuilder("cp", KindCmpNode).
				MovReg(R2, RFP).
				JmpImm(OpJgtImm, R2, 0, "x").
				Label("x").
				ReturnImm(0).MustProgram()
		}},
		{"store-pointer-to-stack", "only scalars", func() *Program {
			return NewBuilder("sp", KindCmpNode).
				MovReg(R2, R1).
				StoreStackReg(OpStxDW, -8, R2).
				ReturnImm(0).MustProgram()
		}},
		{"div-const-zero", "division by constant zero", func() *Program {
			return NewBuilder("dz", KindCmpNode).
				MovImm(R2, 10).
				ALUImm(OpDivImm, R2, 0).
				ReturnImm(0).MustProgram()
		}},
		{"load-through-scalar", "non-pointer", func() *Program {
			return NewBuilder("ls", KindCmpNode).
				MovImm(R2, 1234).
				Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R2, Off: 0}).
				ReturnImm(0).MustProgram()
		}},
		{"pointer-merge-divergent-offset", "uninitialized register", func() *Program {
			// R2 points at fp-8 on one path, fp-16 on the other; the join
			// poisons it, so the later load must be rejected.
			return NewBuilder("pm", KindCmpNode).
				MovReg(R6, R1).
				StoreStackImm(OpStDW, -8, 1).
				StoreStackImm(OpStDW, -16, 2).
				LoadCtx(R3, R6, "curr_cpu").
				MovReg(R2, RFP).
				JmpImm(OpJeqImm, R3, 0, "a").
				AddImm(R2, -8).
				Ja("join").
				Label("a").
				AddImm(R2, -16).
				Label("join").
				Raw(Instruction{Op: OpLdxDW, Dst: R4, Src: R2, Off: 0}).
				ReturnImm(0).MustProgram()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantReject(t, tc.build(), tc.substr)
		})
	}
}

func TestVerifyAcceptsRealisticPolicies(t *testing.T) {
	counts := NewPerCPUArrayMap("counts", 8, 8, 80)
	waits := NewHashMap("waits", 8, 16, 1024)

	progs := []*Program{
		// NUMA-aware cmp_node.
		NewBuilder("numa", KindCmpNode).
			MovReg(R6, R1).
			LoadCtx(R2, R6, "curr_socket").
			LoadCtx(R3, R6, "shuffler_socket").
			JmpReg(OpJeqReg, R2, R3, "grp").
			ReturnImm(0).
			Label("grp").
			ReturnImm(1).
			MustProgram(),
		// Priority cmp_node with a tie-breaker on wait time.
		NewBuilder("prio", KindCmpNode).
			MovReg(R6, R1).
			LoadCtx(R2, R6, "curr_prio").
			LoadCtx(R3, R6, "shuffler_prio").
			JmpReg(OpJgtReg, R2, R3, "grp").
			JmpReg(OpJltReg, R2, R3, "no").
			LoadCtx(R4, R6, "curr_wait_ns").
			JmpImm(OpJgtImm, R4, 1_000_000, "grp").
			Label("no").
			ReturnImm(0).
			Label("grp").
			ReturnImm(1).
			MustProgram(),
		// Bounded shuffle: skip after 8 rounds.
		NewBuilder("bounded", KindSkipShuffle).
			MovReg(R6, R1).
			LoadCtx(R2, R6, "shuffle_round").
			JmpImm(OpJgeImm, R2, 8, "skip").
			ReturnImm(0).
			Label("skip").
			ReturnImm(1).
			MustProgram(),
		// Per-CPU acquisition counter (profiling).
		NewBuilder("count", KindLockAcquired).
			StoreStackImm(OpStW, -4, 0).
			LoadMapPtr(R1, counts).
			MovReg(R2, RFP).
			AddImm(R2, -4).
			MovImm(R3, 1).
			Call(HelperMapAdd).
			ReturnImm(0).
			MustProgram(),
		// Record wait time per lock in a hash map (contended hook).
		NewBuilder("waits", KindLockContended).
			MovReg(R6, R1).
			LoadCtx(R2, R6, "lock_id").
			StoreStackReg(OpStxDW, -8, R2).
			LoadCtx(R3, R6, "now_ns").
			StoreStackReg(OpStxDW, -24, R3).
			StoreStackImm(OpStDW, -16, 1).
			LoadMapPtr(R1, waits).
			MovReg(R2, RFP).
			AddImm(R2, -8).
			MovReg(R3, RFP).
			AddImm(R3, -24).
			Call(HelperMapUpdate).
			ReturnImm(0).
			MustProgram(),
	}
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			stats := mustVerify(t, p)
			if stats.Insns == 0 {
				t.Error("no stats")
			}
		})
	}
}

func TestVerifyStatsStackDepth(t *testing.T) {
	p := NewBuilder("deep", KindLockAcquire).
		StoreStackImm(OpStDW, -128, 1).
		ReturnImm(0).
		MustProgram()
	stats := mustVerify(t, p)
	if stats.MaxStackUsed != 128 {
		t.Errorf("MaxStackUsed = %d, want 128", stats.MaxStackUsed)
	}
}

func TestVerifyNullCheckBothPolarities(t *testing.T) {
	m := NewArrayMap("m", 8, 1)
	// jne-based check: deref on taken branch.
	jne := NewBuilder("jne", KindLockAcquired).
		StoreStackImm(OpStW, -4, 0).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JmpImm(OpJneImm, R0, 0, "ok").
		ReturnImm(0).
		Label("ok").
		Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R0, Off: 0}).
		ReturnReg(R3).
		MustProgram()
	mustVerify(t, jne)

	// jeq-based check: deref on fall-through.
	jeq := NewBuilder("jeq", KindLockAcquired).
		StoreStackImm(OpStW, -4, 0).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JmpImm(OpJeqImm, R0, 0, "null").
		Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R0, Off: 0}).
		ReturnReg(R3).
		Label("null").
		ReturnImm(0).
		MustProgram()
	mustVerify(t, jeq)
}

func TestVerifierTerminationGuarantee(t *testing.T) {
	// A verified program executes each instruction at most once, so a
	// maximal straight-line program terminates in MaxInsns steps.
	b := NewBuilder("max", KindLockAcquire)
	for i := 0; i < MaxInsns-2; i++ {
		b.MovImm(R2, int64(i))
	}
	b.ReturnImm(1)
	p := b.MustProgram()
	mustVerify(t, p)
	got, err := Exec(p, NewCtx(KindLockAcquire), nil)
	if err != nil || got != 1 {
		t.Fatalf("max-length program: got %d, %v", got, err)
	}
}

func TestCallerSavedClobbered(t *testing.T) {
	// R1-R5 are dead after a call; reading them must be rejected.
	p := NewBuilder("clobber", KindLockAcquire).
		MovImm(R3, 7).
		Call(HelperCPU).
		ReturnReg(R3). // R3 clobbered by call
		MustProgram()
	wantReject(t, p, "uninitialized register")

	// R6-R9 survive.
	q := NewBuilder("saved", KindLockAcquire).
		MovImm(R6, 7).
		Call(HelperCPU).
		ReturnReg(R6).
		MustProgram()
	mustVerify(t, q)
	if got, err := Exec(q, NewCtx(KindLockAcquire), nil); err != nil || got != 7 {
		t.Fatalf("callee-saved: got %d, %v", got, err)
	}
}

func TestVerifyMoreRejections(t *testing.T) {
	cases := []struct {
		name   string
		substr string
		build  func() *Program
	}{
		{"pointer-pointer-compare", "conditional jump on", func() *Program {
			return NewBuilder("pp", KindCmpNode).
				MovReg(R2, RFP).
				MovReg(R3, RFP).
				JmpReg(OpJeqReg, R2, R3, "x").
				Label("x").
				ReturnImm(0).MustProgram()
		}},
		{"too-many-maps", "too many maps", func() *Program {
			p := NewBuilder("tm", KindLockAcquired).ReturnImm(0).MustProgram()
			for i := 0; i <= MaxMaps; i++ {
				p.Maps = append(p.Maps, NewArrayMap("m", 8, 1))
			}
			return p
		}},
		{"neg-on-pointer", "arithmetic", func() *Program {
			return NewBuilder("np", KindCmpNode).
				MovReg(R2, RFP).
				Neg(R2).
				ReturnImm(0).MustProgram()
		}},
		{"invalid-register", "invalid register", func() *Program {
			return &Program{Name: "ir", Kind: KindCmpNode, Insns: []Instruction{
				{Op: OpMovImm, Dst: Reg(12)},
				{Op: OpExit},
			}}
		}},
		{"invalid-opcode", "invalid opcode", func() *Program {
			return &Program{Name: "io", Kind: KindCmpNode, Insns: []Instruction{
				{Op: Op(9999)},
				{Op: OpExit},
			}}
		}},
		{"backward-cond-jump", "backward jump", func() *Program {
			return &Program{Name: "bc", Kind: KindCmpNode, Insns: []Instruction{
				{Op: OpMovImm, Dst: R0, Imm: 1},
				{Op: OpJeqImm, Dst: R0, Imm: 0, Off: -1},
				{Op: OpExit},
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantReject(t, tc.build(), tc.substr)
		})
	}
}

func TestVerifyDeadCodeAfterExitTolerated(t *testing.T) {
	// Unreachable garbage after a reachable exit is ignored — only live
	// instructions are checked, matching the eBPF verifier's pruning.
	p := &Program{Name: "dead", Kind: KindCmpNode, Insns: []Instruction{
		{Op: OpMovImm, Dst: R0, Imm: 1},
		{Op: OpExit},
		{Op: OpMovReg, Dst: R0, Src: R5}, // would be an uninit read if live
		{Op: OpExit},
	}}
	mustVerify(t, p)
	if got, err := Exec(p, NewCtx(KindCmpNode), nil); err != nil || got != 1 {
		t.Fatalf("got %d, %v", got, err)
	}
}
