package policy

import (
	"math/rand"
	"testing"
)

// randInsn generates a random (usually garbage) instruction. The
// distribution is biased toward plausible programs so a useful fraction
// passes the verifier and exercises the VM.
func randInsn(r *rand.Rand, progLen, nMaps int) Instruction {
	op := Op(r.Intn(int(opMax)))
	in := Instruction{
		Op:  op,
		Dst: Reg(r.Intn(NumRegs + 1)), // occasionally invalid
		Src: Reg(r.Intn(NumRegs + 1)),
	}
	switch r.Intn(4) {
	case 0:
		in.Imm = int64(r.Intn(16))
	case 1:
		in.Imm = int64(r.Int63())
	case 2:
		in.Imm = -int64(r.Intn(1 << 16))
	default:
		in.Imm = int64(r.Intn(int(numHelpers) + 2))
	}
	switch r.Intn(4) {
	case 0:
		in.Off = int16(r.Intn(progLen + 2))
	case 1:
		in.Off = -int16(r.Intn(64))
	case 2:
		in.Off = int16(-8 * (1 + r.Intn(8))) // plausible stack offset
	default:
		in.Off = int16(8 * r.Intn(8)) // plausible ctx offset
	}
	if op == OpLoadMapPtr {
		in.Imm = int64(r.Intn(nMaps + 1))
	}
	return in
}

// TestVerifierSoundness is the core safety property of the whole
// framework: for arbitrary byte soup,
//
//  1. Verify never panics, and
//  2. if Verify accepts, execution completes without a runtime fault
//     for every context — i.e. verified policies cannot crash the
//     "kernel" — and returns a value inside Analyze's Return.
//
// 50k random programs of varying length; failures print a reproducer.
func TestVerifierSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz-style test")
	}
	r := rand.New(rand.NewSource(20260704))
	kinds := []Kind{KindCmpNode, KindSkipShuffle, KindScheduleWaiter, KindLockAcquired}
	maps := []Map{
		NewArrayMap("a", 8, 4),
		NewHashMap("h", 8, 16, 32),
	}
	env := &TestEnv{CPUID: 3, NUMA: 1, Task: 42, Prio: 120}

	accepted := 0
	const total = 50_000
	for i := 0; i < total; i++ {
		n := 1 + r.Intn(24)
		p := &Program{
			Name: "fuzz",
			Kind: kinds[r.Intn(len(kinds))],
			Maps: maps,
		}
		for j := 0; j < n; j++ {
			p.Insns = append(p.Insns, randInsn(r, n, len(maps)))
		}

		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("verifier panicked on program %d: %v\n%s", i, rec, p)
				}
			}()
			if _, err := Verify(p); err != nil {
				return
			}
			accepted++
			ctx := NewCtx(p.Kind)
			// Random context contents must not matter for safety.
			for w := range ctx.Words {
				ctx.Words[w] = r.Uint64()
			}
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("VM panicked on verified program %d: %v\n%s", i, rec, p)
				}
			}()
			r0, err := Exec(p, ctx, env)
			if err != nil {
				t.Fatalf("verified program %d faulted at runtime: %v\n%s", i, err, p)
			}
			checkReturn(t, p, r0)
		}()
	}
	if accepted == 0 {
		t.Error("fuzzer never produced a verifiable program; generator too weak")
	}
	t.Logf("accepted %d/%d random programs; all executed cleanly", accepted, total)
}

// TestVerifierSoundnessStructured does the same with structured random
// programs (built through the Builder, so most verify) to push coverage
// into the VM rather than the verifier's rejection paths.
func TestVerifierSoundnessStructured(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewArrayMap("m", 16, 8)
	env := &TestEnv{}
	accepted := 0

	for i := 0; i < 5_000; i++ {
		b := NewBuilder("sfuzz", KindLockAcquired)
		b.MovReg(R6, R1)
		nOps := 1 + r.Intn(12)
		initialized := []Reg{R6}
		for j := 0; j < nOps; j++ {
			dst := Reg(r.Intn(5)) // R0..R4
			switch r.Intn(7) {
			case 0:
				b.MovImm(dst, int64(r.Intn(1024))-512)
				initialized = append(initialized, dst)
			case 1:
				src := initialized[r.Intn(len(initialized))]
				b.MovReg(dst, src)
				initialized = append(initialized, dst)
			case 2:
				b.LoadCtx(dst, R6, "lock_id")
				initialized = append(initialized, dst)
			case 3:
				off := int16(-8 * (1 + r.Intn(4)))
				b.StoreStackImm(OpStDW, off, int64(r.Intn(100)))
				b.LoadStack(OpLdxDW, dst, off)
				initialized = append(initialized, dst)
			case 4:
				src := initialized[r.Intn(len(initialized))]
				ops := []Op{OpAddReg, OpSubReg, OpMulReg, OpAndReg, OpOrReg, OpXorReg}
				if src != R6 && dst != R6 && contains(initialized, dst) {
					b.ALUReg(ops[r.Intn(len(ops))], dst, src)
				}
			case 5:
				if contains(initialized, dst) {
					b.ALUImm(OpAddImm, dst, int64(r.Intn(64)))
				}
			case 6:
				// Bounded map counter access.
				b.StoreStackImm(OpStW, -4, int64(r.Intn(8)))
				b.LoadMapPtr(R1, m)
				b.MovReg(R2, RFP)
				b.AddImm(R2, -4)
				b.MovImm(R3, 1)
				b.Call(HelperMapAdd)
				initialized = []Reg{R6} // caller-saved clobbered
			}
		}
		b.ReturnImm(int64(i))
		p, err := b.Program()
		if err != nil {
			continue
		}
		if _, err := Verify(p); err != nil {
			continue // some sequences legitimately fail (uninit reads)
		}
		accepted++
		if got, err := Exec(p, NewCtx(KindLockAcquired), env); err != nil {
			t.Fatalf("structured program %d faulted: %v\n%s", i, err, p)
		} else if got != uint64(i) {
			t.Fatalf("structured program %d returned %d", i, got)
		} else {
			checkReturn(t, p, got)
		}
	}
	if accepted < 1000 {
		t.Errorf("only %d/5000 structured programs verified; generator broken?", accepted)
	}
}

// checkReturn fails t unless r0, the VM's R0 for the verified program p,
// lies in Analyze's Return: the walk's intervals are part of the trusted
// base, so the VM holds them to account on every accepted program.
func checkReturn(t testing.TB, p *Program, r0 uint64) {
	t.Helper()
	ret, err := AnalyzeReturn(p)
	if err != nil {
		t.Fatalf("Analyze rejected a verified program: %v\n%s", err, p)
	}
	if v := int64(r0); v < ret.Lo || v > ret.Hi {
		t.Fatalf("VM returned %d, outside Analyze's return %s\n%s", v, ret, p)
	}
}

func contains(rs []Reg, r Reg) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}
