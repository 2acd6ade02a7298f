package policy

import (
	"encoding/binary"
	"testing"
)

// FuzzVerify is the native-fuzzing companion to TestVerifierSoundness,
// checking the same two-part safety contract on fuzzer-driven input:
//
//  1. Verify never panics, whatever the program, and
//  2. if Verify accepts, execution completes without a runtime fault
//     under an arbitrary context — verified policies cannot crash the
//     framework — and returns a value inside Analyze's Return.
//
// Inputs that parse as JSON go through the concordctl wire format
// (Unmarshal), covering the deserializer; everything else is decoded as
// a dense fixed-width instruction stream so byte-level mutations keep
// producing structurally varied programs. Run under CI as a short
// -fuzztime smoke; locally, `go test -fuzz=FuzzVerify ./internal/policy`.
func FuzzVerify(f *testing.F) {
	// Seed with real programs in both encodings: a verifiable map-lookup
	// policy, a trivial return, and a deliberately broken jump.
	m := NewArrayMap("a", 8, 4)
	lookup := NewBuilder("seed_lookup", KindLockAcquired).
		StoreStackImm(OpStW, -4, 0).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JmpImm(OpJneImm, R0, 0, "ok").
		ReturnImm(0).
		Label("ok").
		ReturnImm(1).
		MustProgram()
	if data, err := Marshal(lookup); err == nil {
		f.Add(data)
	}
	trivial := NewBuilder("seed_ret", KindCmpNode).ReturnImm(1).MustProgram()
	if data, err := Marshal(trivial); err == nil {
		f.Add(data)
	}
	f.Add(encodeRawFuzz(0, []Instruction{
		{Op: OpMovImm, Dst: R0, Imm: 7},
		{Op: OpExit},
	}))
	f.Add(encodeRawFuzz(3, []Instruction{
		{Op: OpJa, Off: -1}, // backward jump: must be rejected, not crash
		{Op: OpExit},
	}))
	// Programs whose R0, under the fuzz Env's cpu of 3, lands on an end of
	// the interval the walk derives for it: a transfer function or a
	// refinement that claims one value too little is caught here.
	cpu := Instruction{Op: OpCall, Imm: int64(HelperCPU)}
	for _, insns := range [][]Instruction{
		{cpu, {Op: OpAndImm, Dst: R0, Imm: 3}, {Op: OpExit}}, // [0,3]
		{cpu, {Op: OpJgtImm, Dst: R0, Imm: 3, Off: 3}, // fall: [0,3]
			{Op: OpMovReg, Dst: R1, Src: R0}, {Op: OpAddReg, Dst: R0, Src: R1}, {Op: OpExit}, // [0,6]
			{Op: OpMovImm, Dst: R0}, {Op: OpExit}},
		{cpu, {Op: OpJgtImm, Dst: R0, Imm: 2, Off: 2}, // taken: [3,4096]
			{Op: OpMovImm, Dst: R0, Imm: 10000}, {Op: OpExit}, {Op: OpExit}},
		{{Op: OpMovImm, Dst: R1}, {Op: OpCall, Imm: int64(HelperTrace)}, {Op: OpExit}}, // 0
	} {
		f.Add(encodeRawFuzz(3, insns))
	}

	// One program per (kind, context field) that loads the field and
	// branches on its low bit. checkReturn complements every word outside
	// CtxReads, which flips that bit, so a footprint that misses the
	// field changes the run's R0.
	for k := Kind(0); k.Valid(); k++ {
		for _, field := range LayoutFor(k).Fields {
			p := NewBuilder("seed_"+field.Name, k).
				LoadCtx(R0, R1, field.Name).
				ALUImm(OpAndImm, R0, 1).
				JmpImm(OpJeqImm, R0, 0, "zero").
				ReturnImm(1).
				Label("zero").
				ReturnImm(0).
				MustProgram()
			if data, err := Marshal(p); err == nil {
				f.Add(data)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p *Program
		if len(data) > 0 && data[0] == '{' {
			var err error
			if p, err = Unmarshal(data); err != nil {
				return
			}
		} else if p = decodeRawFuzz(data); p == nil {
			return
		}

		// Property 1: Verify must reject, not panic (a panic fails the
		// fuzz run on its own).
		if _, err := Verify(p); err != nil {
			return
		}

		// Property 2: an accepted program runs to completion under an
		// arbitrary context, against live maps, inside Analyze's Return.
		ctx := NewCtx(p.Kind)
		h := uint64(14695981039346656037)
		for _, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
		}
		for w := range ctx.Words {
			h = (h ^ uint64(w)) * 1099511628211
			ctx.Words[w] = h
		}
		r0, err := Exec(p, ctx, &TestEnv{CPUID: 3, NUMA: 1, Task: 42, Prio: 120})
		if err != nil {
			t.Fatalf("verified program faulted at runtime: %v\n%s", err, p)
		}
		checkReturn(t, p, ctx, r0)
	})
}

// Fixed-width raw encoding for fuzz inputs: one leading kind byte, then
// 10 bytes per instruction (op:2 dst:1 src:1 off:2 imm:4, little
// endian). Op and registers are reduced modulo slightly-past-valid
// ranges so the stream stays instruction-shaped but still reaches the
// verifier's rejection paths.
func decodeRawFuzz(data []byte) *Program {
	if len(data) < 1+10 {
		return nil
	}
	kinds := []Kind{KindCmpNode, KindSkipShuffle, KindScheduleWaiter, KindLockAcquired}
	p := &Program{
		Name: "fuzz",
		Kind: kinds[int(data[0])%len(kinds)],
		Maps: []Map{NewArrayMap("a", 8, 4), NewHashMap("h", 8, 16, 32)},
	}
	for data = data[1:]; len(data) >= 10 && len(p.Insns) <= MaxInsns; data = data[10:] {
		p.Insns = append(p.Insns, Instruction{
			Op:  Op(binary.LittleEndian.Uint16(data[0:2]) % uint16(opMax+1)),
			Dst: Reg(data[2] % (NumRegs + 1)),
			Src: Reg(data[3] % (NumRegs + 1)),
			Off: int16(binary.LittleEndian.Uint16(data[4:6])),
			Imm: int64(int32(binary.LittleEndian.Uint32(data[6:10]))),
		})
	}
	return p
}

func encodeRawFuzz(kind byte, insns []Instruction) []byte {
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

// TestFuzzSeedsRoundTrip pins the raw encoding: decode(encode(p))
// reproduces the instruction stream, so corpus entries stay meaningful
// if the format evolves.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	insns := []Instruction{
		{Op: OpMovImm, Dst: R0, Imm: -9},
		{Op: OpJneImm, Dst: R0, Imm: 3, Off: 1},
		{Op: OpExit},
	}
	p := decodeRawFuzz(encodeRawFuzz(2, insns))
	if p == nil {
		t.Fatal("decode returned nil")
	}
	if p.Kind != KindScheduleWaiter {
		t.Errorf("kind = %v", p.Kind)
	}
	if len(p.Insns) != len(insns) {
		t.Fatalf("len = %d, want %d", len(p.Insns), len(insns))
	}
	for i, in := range insns {
		if p.Insns[i] != in {
			t.Errorf("insn %d: %v != %v", i, p.Insns[i], in)
		}
	}
}
