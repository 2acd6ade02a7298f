package jit_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"concord/internal/policy"
	"concord/internal/policy/jit"
)

// FuzzVMvsJIT is the differential companion to the policy package's
// FuzzVerify: it decodes the same dense instruction encoding, and for
// every program the verifier admits and the tree grammar covers, runs the
// interpreter and the decision tree (the two execution tiers) on
// identically-seeded context and map state and fails on any observable
// divergence — register result, fault text, ExecStats deltas, trace
// sequence, occ_set requests, or final map contents. Run under CI as a
// short -fuzztime smoke; locally,
// `go test -fuzz=FuzzVMvsJIT ./internal/policy/jit`.
func FuzzVMvsJIT(f *testing.F) {
	f.Add(encodeDiffFuzz(0, []policy.Instruction{
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 7},
		{Op: policy.OpExit},
	}))
	// Map lookup through the stack, guarded null check, word store.
	f.Add(encodeDiffFuzz(3, []policy.Instruction{
		{Op: policy.OpStDW, Dst: policy.RFP, Off: -8, Imm: 2},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpMovImm, Dst: policy.R3, Imm: 5},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapAdd)},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 0},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapLookup)},
		{Op: policy.OpJeqImm, Dst: policy.R0, Imm: 0, Off: 2},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0},
		{Op: policy.OpExit},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 0},
		{Op: policy.OpExit},
	}))
	// Ctx loads feeding arithmetic and a signed comparison ladder.
	f.Add(encodeDiffFuzz(1, []policy.Instruction{
		{Op: policy.OpLdxDW, Dst: policy.R2, Src: policy.R1, Off: 0},
		{Op: policy.OpLdxDW, Dst: policy.R3, Src: policy.R1, Off: 8},
		{Op: policy.OpMovReg, Dst: policy.R0, Src: policy.R2},
		{Op: policy.OpDivReg, Dst: policy.R0, Src: policy.R3},
		{Op: policy.OpJsgtReg, Dst: policy.R2, Src: policy.R3, Off: 1},
		{Op: policy.OpNeg, Dst: policy.R0},
		{Op: policy.OpExit},
	}))
	// Helper calls with env state (outside the tree grammar: the VM alone).
	f.Add(encodeDiffFuzz(2, []policy.Instruction{
		{Op: policy.OpCall, Imm: int64(policy.HelperKtimeNS)},
		{Op: policy.OpMovReg, Dst: policy.R6, Src: policy.R0},
		{Op: policy.OpCall, Imm: int64(policy.HelperRand)},
		{Op: policy.OpXorReg, Dst: policy.R0, Src: policy.R6},
		{Op: policy.OpExit},
	}))

	// Decision trees: helper-free compares of context words. The DSL's
	// spill through the stack with a shift on each side of the compare…
	f.Add(encodeDiffFuzz(0, []policy.Instruction{
		{Op: policy.OpMovReg, Dst: policy.R6, Src: policy.R1},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R6, Off: 144},
		{Op: policy.OpRshImm, Dst: policy.R0, Imm: 1},
		{Op: policy.OpStxDW, Dst: policy.RFP, Src: policy.R0, Off: -24},
		{Op: policy.OpLdxDW, Dst: policy.R2, Src: policy.R6, Off: 56},
		{Op: policy.OpRshImm, Dst: policy.R2, Imm: 1},
		{Op: policy.OpLdxDW, Dst: policy.R1, Src: policy.RFP, Off: -24},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 1},
		{Op: policy.OpJeqReg, Dst: policy.R1, Src: policy.R2, Off: 1},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 0},
		{Op: policy.OpExit},
	}))
	// …and a two-level ladder with a constant-folded branch, a signed
	// compare and a word returned as is.
	f.Add(encodeDiffFuzz(2, []policy.Instruction{
		{Op: policy.OpLdxDW, Dst: policy.R2, Src: policy.R1, Off: 72},
		{Op: policy.OpMovImm, Dst: policy.R3, Imm: 4},
		{Op: policy.OpJgtImm, Dst: policy.R3, Imm: 9, Off: 5},
		{Op: policy.OpJsgtImm, Dst: policy.R2, Imm: -1, Off: 2},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 2},
		{Op: policy.OpExit},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R1, Off: 96},
		{Op: policy.OpExit},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 0},
		{Op: policy.OpExit},
	}))

	// Map calls on the tree: a lookup that hits what an update stored…
	f.Add(encodeDiffFuzz(3, []policy.Instruction{
		{Op: policy.OpStDW, Dst: policy.RFP, Off: -8, Imm: 1},
		{Op: policy.OpStDW, Dst: policy.RFP, Off: -24, Imm: 5},
		{Op: policy.OpStDW, Dst: policy.RFP, Off: -16, Imm: 77},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpMovReg, Dst: policy.R3, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R3, Imm: -24},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapUpdate)},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapLookup)},
		{Op: policy.OpJeqImm, Dst: policy.R0, Imm: 0, Off: 2},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0, Off: 8},
		{Op: policy.OpExit},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 0},
		{Op: policy.OpExit},
	}))
	// …a lookup of a context word that misses…
	f.Add(encodeDiffFuzz(1, []policy.Instruction{
		{Op: policy.OpLdxDW, Dst: policy.R2, Src: policy.R1, Off: 0},
		{Op: policy.OpStxDW, Dst: policy.RFP, Src: policy.R2, Off: -8},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapLookup)},
		{Op: policy.OpJneImm, Dst: policy.R0, Imm: 0, Off: 2},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 3},
		{Op: policy.OpExit},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0},
		{Op: policy.OpExit},
	}))
	// …33 updates with distinct keys into the 32-entry hash map, the last
	// into a full map, then a lookup of that last key…
	full := []policy.Instruction{
		{Op: policy.OpStDW, Dst: policy.RFP, Off: -24, Imm: 5},
		{Op: policy.OpStDW, Dst: policy.RFP, Off: -16, Imm: 6},
	}
	for key := int64(0); key <= 32; key++ {
		full = append(full,
			policy.Instruction{Op: policy.OpStDW, Dst: policy.RFP, Off: -8, Imm: key},
			policy.Instruction{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
			policy.Instruction{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
			policy.Instruction{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
			policy.Instruction{Op: policy.OpMovReg, Dst: policy.R3, Src: policy.RFP},
			policy.Instruction{Op: policy.OpAddImm, Dst: policy.R3, Imm: -24},
			policy.Instruction{Op: policy.OpCall, Imm: int64(policy.HelperMapUpdate)})
	}
	f.Add(encodeDiffFuzz(3, append(full,
		policy.Instruction{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		policy.Instruction{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		policy.Instruction{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		policy.Instruction{Op: policy.OpCall, Imm: int64(policy.HelperMapLookup)},
		policy.Instruction{Op: policy.OpMovImm, Dst: policy.R6, Imm: 1},
		policy.Instruction{Op: policy.OpJeqImm, Dst: policy.R0, Imm: 0, Off: 1},
		policy.Instruction{Op: policy.OpMovImm, Dst: policy.R6, Imm: 2},
		policy.Instruction{Op: policy.OpMovReg, Dst: policy.R0, Src: policy.R6},
		policy.Instruction{Op: policy.OpExit},
	)))
	// …an add into the per-CPU array, read back on the same CPU…
	f.Add(encodeDiffFuzz(3, []policy.Instruction{
		{Op: policy.OpStW, Dst: policy.RFP, Off: -8, Imm: 1},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 2},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpMovImm, Dst: policy.R3, Imm: 7},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapAdd)},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 2},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapLookup)},
		{Op: policy.OpJeqImm, Dst: policy.R0, Imm: 0, Off: 2},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0},
		{Op: policy.OpExit},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 0},
		{Op: policy.OpExit},
	}))
	// …and a hash key built from three narrow stores, two of context words.
	f.Add(encodeDiffFuzz(0, []policy.Instruction{
		{Op: policy.OpLdxDW, Dst: policy.R2, Src: policy.R1, Off: 0},
		{Op: policy.OpStxW, Dst: policy.RFP, Src: policy.R2, Off: -8},
		{Op: policy.OpLdxDW, Dst: policy.R3, Src: policy.R1, Off: 8},
		{Op: policy.OpStxH, Dst: policy.RFP, Src: policy.R3, Off: -4},
		{Op: policy.OpStH, Dst: policy.RFP, Off: -2, Imm: 0x55},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpMovImm, Dst: policy.R3, Imm: 1},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapAdd)},
		{Op: policy.OpLoadMapPtr, Dst: policy.R1, Imm: 1},
		{Op: policy.OpMovReg, Dst: policy.R2, Src: policy.RFP},
		{Op: policy.OpAddImm, Dst: policy.R2, Imm: -8},
		{Op: policy.OpCall, Imm: int64(policy.HelperMapLookup)},
		{Op: policy.OpJeqImm, Dst: policy.R0, Imm: 0, Off: 2},
		{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0},
		{Op: policy.OpExit},
		{Op: policy.OpMovImm, Dst: policy.R0, Imm: 0},
		{Op: policy.OpExit},
	}))

	// A lock statistic returned, and an occ_set of a context word between
	// its read and the exit.
	f.Add(encodeDiffFuzz(3, []policy.Instruction{
		{Op: policy.OpLdxDW, Dst: policy.R6, Src: policy.R1, Off: 0},
		{Op: policy.OpMovImm, Dst: policy.R1, Imm: 7},
		{Op: policy.OpCall, Imm: int64(policy.HelperLockStats)},
		{Op: policy.OpMovReg, Dst: policy.R7, Src: policy.R0},
		{Op: policy.OpMovReg, Dst: policy.R1, Src: policy.R6},
		{Op: policy.OpCall, Imm: int64(policy.HelperOCCSet)},
		{Op: policy.OpMovReg, Dst: policy.R0, Src: policy.R7},
		{Op: policy.OpExit},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		build := func() (*policy.Program, error) {
			p := decodeDiffFuzz(data)
			if p == nil {
				return nil, errors.New("short input")
			}
			if _, err := policy.Verify(p); err != nil {
				return nil, err
			}
			return p, nil
		}
		// Probe once: unverifiable inputs and programs outside the tree
		// grammar are out of scope here (FuzzVerify owns the
		// verifier-never-crashes property; tier selection keeps such
		// programs on the VM).
		probe, err := build()
		if err != nil {
			return
		}
		if _, err := jit.Compile(probe); err != nil {
			if errors.Is(err, jit.ErrUnsupported) {
				return
			}
			t.Fatalf("Compile failed on verified program with non-unsupported error: %v\n%s", err, probe)
		}

		mkEnv := func() *policy.TestEnv {
			return &policy.TestEnv{CPUID: 3, NUMA: 1, Task: 42, Prio: 120,
				LockStats: map[uint64]uint64{1: 500, 7: 42}}
		}
		h, err := jit.NewDiffHarness(build, mkEnv)
		if err != nil {
			t.Fatalf("harness: %v", err)
		}

		// Context words derived from the input so mutations explore the
		// data space too; a second step with a truncated context probes
		// ctx-bounds fault parity.
		words := make([]uint64, len(policy.NewCtx(probe.Kind).Words))
		hsh := uint64(14695981039346656037)
		for _, b := range data {
			hsh = (hsh ^ uint64(b)) * 1099511628211
		}
		for w := range words {
			hsh = (hsh ^ uint64(w)) * 1099511628211
			words[w] = hsh
		}
		if err := h.Step(words); err != nil {
			t.Fatalf("full ctx: %v\n%s", err, probe)
		}
		if len(words) > 1 {
			if err := h.Step(words[:1]); err != nil {
				t.Fatalf("short ctx: %v\n%s", err, probe)
			}
		}
		if _, err := h.Check(); err != nil {
			t.Fatalf("final state: %v\n%s", err, probe)
		}
	})
}

// decodeDiffFuzz mirrors the policy package's raw fuzz encoding: one
// leading kind byte, then 10 bytes per instruction (op:2 dst:1 src:1
// off:2 imm:4, little endian), ops and registers reduced modulo
// slightly-past-valid ranges. Kept byte-compatible so corpus entries
// transfer between FuzzVerify and FuzzVMvsJIT.
func decodeDiffFuzz(data []byte) *policy.Program {
	if len(data) < 1+10 {
		return nil
	}
	opCeil := uint16(policy.OpExit) + 2 // opMax+1 in the policy package
	kinds := []policy.Kind{policy.KindCmpNode, policy.KindSkipShuffle,
		policy.KindScheduleWaiter, policy.KindLockAcquired}
	p := &policy.Program{
		Name: "fuzz",
		Kind: kinds[int(data[0])%len(kinds)],
		Maps: []policy.Map{policy.NewArrayMap("a", 8, 4), policy.NewHashMap("h", 8, 16, 32),
			policy.NewPerCPUArrayMap("p", 8, 2, 4)},
	}
	for data = data[1:]; len(data) >= 10 && len(p.Insns) <= policy.MaxInsns; data = data[10:] {
		p.Insns = append(p.Insns, policy.Instruction{
			Op:  policy.Op(binary.LittleEndian.Uint16(data[0:2]) % opCeil),
			Dst: policy.Reg(data[2] % (policy.NumRegs + 1)),
			Src: policy.Reg(data[3] % (policy.NumRegs + 1)),
			Off: int16(binary.LittleEndian.Uint16(data[4:6])),
			Imm: int64(int32(binary.LittleEndian.Uint32(data[6:10]))),
		})
	}
	return p
}

func encodeDiffFuzz(kind byte, insns []policy.Instruction) []byte {
	out := []byte{kind}
	for _, in := range insns {
		var b [10]byte
		binary.LittleEndian.PutUint16(b[0:2], uint16(in.Op))
		b[2], b[3] = byte(in.Dst), byte(in.Src)
		binary.LittleEndian.PutUint16(b[4:6], uint16(in.Off))
		binary.LittleEndian.PutUint32(b[6:10], uint32(int32(in.Imm)))
		out = append(out, b[:]...)
	}
	return out
}
