package policy

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Program is a cBPF program: instructions plus the maps they reference.
// A Program must pass Verify before it can be executed; the Concord
// framework refuses to attach unverified programs, mirroring the kernel's
// refusal to load eBPF that fails verification.
type Program struct {
	Name  string
	Kind  Kind
	Insns []Instruction
	Maps  []Map

	verified bool
	stats    ExecStats
}

// ExecStats counts a program's runtime activity across every execution
// tier (interpreter and JIT). All fields are atomics;
// the VM accumulates instruction counts locally per run and folds them
// in with one add, so the hot path stays cheap. The telemetry layer
// exports these per program on /metrics.
type ExecStats struct {
	Runs        atomic.Int64 // completed or faulted executions
	Insns       atomic.Int64 // instructions executed
	HelperCalls atomic.Int64 // helper invocations
	MapOps      atomic.Int64 // map lookup/update/delete/add helper calls
	Faults      atomic.Int64 // runtime faults (RuntimeError)
	JITRuns     atomic.Int64 // subset of Runs executed on the JIT closure tier
}

// Stats returns the program's runtime execution counters.
func (p *Program) Stats() *ExecStats { return &p.stats }

// Verified reports whether the program has passed verification.
func (p *Program) Verified() bool { return p.verified }

// MapByName finds a referenced map by name.
func (p *Program) MapByName(name string) (Map, bool) {
	for _, m := range p.Maps {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// String renders the program as assembler text.
func (p *Program) String() string {
	out := fmt.Sprintf("; program %q kind=%s maps=%d\n", p.Name, p.Kind, len(p.Maps))
	for i, in := range p.Insns {
		out += fmt.Sprintf("%4d: %s\n", i, in)
	}
	return out
}

// Builder assembles a Program from Go code with symbolic labels, the
// programmatic equivalent of the assembler. It is the backend of the DSL
// compiler and the workhorse of the test suite.
//
// Errors are collected rather than returned from each emit call;
// Program() reports the first one.
type Builder struct {
	name   string
	kind   Kind
	insns  []Instruction
	labels map[string]int
	fixups map[int]string // instruction index -> unresolved label
	maps   []Map
	mapIdx map[string]int
	errs   []error
}

// NewBuilder starts a program of the given kind.
func NewBuilder(name string, kind Kind) *Builder {
	return &Builder{
		name:   name,
		kind:   kind,
		labels: make(map[string]int),
		fixups: make(map[int]string),
		mapIdx: make(map[string]int),
	}
}

func (b *Builder) errorf(format string, args ...any) *Builder {
	b.errs = append(b.errs, fmt.Errorf("builder %q: "+format, append([]any{b.name}, args...)...))
	return b
}

func (b *Builder) emit(in Instruction) *Builder {
	b.insns = append(b.insns, in)
	return b
}

// Len reports the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insns) }

// Label binds a name to the position of the next instruction.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		return b.errorf("duplicate label %q", name)
	}
	b.labels[name] = len(b.insns)
	return b
}

// RegisterMap makes a map available to the program and returns its index.
func (b *Builder) RegisterMap(m Map) int {
	if i, ok := b.mapIdx[m.Name()]; ok {
		return i
	}
	if len(b.maps) >= MaxMaps {
		b.errorf("too many maps (max %d)", MaxMaps)
		return 0
	}
	b.maps = append(b.maps, m)
	b.mapIdx[m.Name()] = len(b.maps) - 1
	return len(b.maps) - 1
}

// --- ALU ---

// MovImm emits dst = imm.
func (b *Builder) MovImm(dst Reg, imm int64) *Builder {
	return b.emit(Instruction{Op: OpMovImm, Dst: dst, Imm: imm})
}

// MovReg emits dst = src.
func (b *Builder) MovReg(dst, src Reg) *Builder {
	return b.emit(Instruction{Op: OpMovReg, Dst: dst, Src: src})
}

// ALUImm emits dst = dst <op> imm for an *Imm ALU opcode.
func (b *Builder) ALUImm(op Op, dst Reg, imm int64) *Builder {
	return b.emit(Instruction{Op: op, Dst: dst, Imm: imm})
}

// ALUReg emits dst = dst <op> src for a *Reg ALU opcode.
func (b *Builder) ALUReg(op Op, dst, src Reg) *Builder {
	return b.emit(Instruction{Op: op, Dst: dst, Src: src})
}

// AddImm emits dst += imm.
func (b *Builder) AddImm(dst Reg, imm int64) *Builder { return b.ALUImm(OpAddImm, dst, imm) }

// AddReg emits dst += src.
func (b *Builder) AddReg(dst, src Reg) *Builder { return b.ALUReg(OpAddReg, dst, src) }

// SubImm emits dst -= imm.
func (b *Builder) SubImm(dst Reg, imm int64) *Builder { return b.ALUImm(OpSubImm, dst, imm) }

// SubReg emits dst -= src.
func (b *Builder) SubReg(dst, src Reg) *Builder { return b.ALUReg(OpSubReg, dst, src) }

// MulImm emits dst *= imm.
func (b *Builder) MulImm(dst Reg, imm int64) *Builder { return b.ALUImm(OpMulImm, dst, imm) }

// Neg emits dst = -dst.
func (b *Builder) Neg(dst Reg) *Builder { return b.emit(Instruction{Op: OpNeg, Dst: dst}) }

// --- Jumps ---

// Ja emits an unconditional jump to label.
func (b *Builder) Ja(label string) *Builder { return b.jump(OpJa, 0, 0, 0, label) }

// JmpImm emits a conditional jump comparing dst against an immediate.
func (b *Builder) JmpImm(op Op, dst Reg, imm int64, label string) *Builder {
	return b.jump(op, dst, 0, imm, label)
}

// JmpReg emits a conditional jump comparing dst against src.
func (b *Builder) JmpReg(op Op, dst, src Reg, label string) *Builder {
	return b.jump(op, dst, src, 0, label)
}

func (b *Builder) jump(op Op, dst, src Reg, imm int64, label string) *Builder {
	b.fixups[len(b.insns)] = label
	return b.emit(Instruction{Op: op, Dst: dst, Src: src, Imm: imm})
}

// --- Memory ---

// LoadStack emits dst = *(size*)(rfp + off).
func (b *Builder) LoadStack(op Op, dst Reg, off int16) *Builder {
	return b.emit(Instruction{Op: op, Dst: dst, Src: RFP, Off: off})
}

// StoreStackReg emits *(size*)(rfp + off) = src.
func (b *Builder) StoreStackReg(op Op, off int16, src Reg) *Builder {
	return b.emit(Instruction{Op: op, Dst: RFP, Src: src, Off: off})
}

// StoreStackImm emits *(size*)(rfp + off) = imm.
func (b *Builder) StoreStackImm(op Op, off int16, imm int64) *Builder {
	return b.emit(Instruction{Op: op, Dst: RFP, Off: off, Imm: imm})
}

// LoadCtx emits dst = ctx.field, reading the context pointer from ctxReg.
// By convention programs save R1 (the context) into a callee-saved
// register in their prologue and pass that here.
func (b *Builder) LoadCtx(dst, ctxReg Reg, field string) *Builder {
	f, ok := LayoutFor(b.kind).FieldByName(field)
	if !ok {
		return b.errorf("kind %s has no ctx field %q", b.kind, field)
	}
	return b.emit(Instruction{Op: OpLdxDW, Dst: dst, Src: ctxReg, Off: int16(f.Off)})
}

// LoadMapPtr emits dst = &map, registering the map if needed.
func (b *Builder) LoadMapPtr(dst Reg, m Map) *Builder {
	idx := b.RegisterMap(m)
	return b.emit(Instruction{Op: OpLoadMapPtr, Dst: dst, Imm: int64(idx)})
}

// --- Calls and exit ---

// Call emits a helper call.
func (b *Builder) Call(h HelperID) *Builder {
	return b.emit(Instruction{Op: OpCall, Imm: int64(h)})
}

// Exit emits a program exit.
func (b *Builder) Exit() *Builder { return b.emit(Instruction{Op: OpExit}) }

// ReturnImm emits r0 = v; exit.
func (b *Builder) ReturnImm(v int64) *Builder { return b.MovImm(R0, v).Exit() }

// ReturnReg emits r0 = src; exit.
func (b *Builder) ReturnReg(src Reg) *Builder { return b.MovReg(R0, src).Exit() }

// Raw appends a raw instruction (escape hatch for verifier tests).
func (b *Builder) Raw(in Instruction) *Builder { return b.emit(in) }

// Program resolves labels and returns the assembled program. The result
// is NOT yet verified; call Verify (or Load, which does both).
func (b *Builder) Program() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	insns := make([]Instruction, len(b.insns))
	copy(insns, b.insns)
	for idx, label := range b.fixups {
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("builder %q: undefined label %q", b.name, label)
		}
		disp := target - (idx + 1)
		if disp < -32768 || disp > 32767 {
			return nil, fmt.Errorf("builder %q: jump to %q out of range", b.name, label)
		}
		insns[idx].Off = int16(disp)
	}
	maps := make([]Map, len(b.maps))
	copy(maps, b.maps)
	return &Program{Name: b.name, Kind: b.kind, Insns: insns, Maps: maps}, nil
}

// MustProgram is Program but panics on error; for tests and examples.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}
