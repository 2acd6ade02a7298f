package jit

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/faultinject"
	"concord/internal/policy"
)

// mach is the execution state threaded through compiled closures: raw
// uint64 registers (the verifier's static types replace the VM's
// runtime-typed rtVal), per-register map-value backings, and the policy
// stack. Machines are pooled; the stack is deliberately NOT cleared on
// reuse — the verifier proves programs never read stack bytes they did
// not write — and neither are registers the dataflow marks unusable.
type mach struct {
	regs  [policy.NumRegs]uint64
	vals  [policy.NumRegs][]uint64
	stack [policy.StackSize]byte
	ctx   *policy.Ctx
	env   policy.Env
	lsr   policy.LockStatReader
	ocs   policy.OCCSetter

	insns   int64
	helpers int64
	mapOps  int64

	ret uint64
	err *policy.RuntimeError
}

type step func(m *mach)

var machPool = sync.Pool{New: func() any { return new(mach) }}

// Interfaces the map helpers dispatch through when the analyzer pins
// R1's map at compile time. Structural copies of the unexported ones in
// package policy; every builtin map kind implements both.
type rawUpdater interface {
	UpdateRaw(key, raw []byte, cpu int) error
}

type lookupOrIniter interface {
	LookupOrInit(key []byte, cpu int) []uint64
}

// Compile lowers a verified program to a policy.CompiledFn that is
// observationally identical to policy.Exec: same R0, same faults (pc
// and message), same ExecStats deltas, same map mutations, same helper
// and fault-injection ordering. Programs the lowering cannot type
// return an error wrapping ErrUnsupported and stay on the VM tier.
func Compile(p *policy.Program) (policy.CompiledFn, error) {
	b, err := lowerBody(p)
	if err != nil {
		return nil, err
	}
	return b.bind(p.Stats()), nil
}

// body is a program lowered to closures, without the accounting of any one
// program: what Choose shares between programs with the same name, kind,
// bytecode and map objects. bind gives it the ExecStats it counts into.
type body struct {
	entry           step
	name            string
	kind            policy.Kind
	usesLS, usesOCC bool
}

func lowerBody(p *policy.Program) (*body, error) {
	if !p.Verified() {
		return nil, policy.ErrNotVerified
	}
	c := &compiler{p: p, insns: p.Insns, n: len(p.Insns)}
	if err := c.compile(); err != nil {
		return nil, err
	}
	return &body{entry: c.steps[0], name: p.Name, kind: p.Kind,
		usesLS: c.usesLockStats, usesOCC: c.usesOCCSet}, nil
}

// bind returns the CompiledFn that runs b and counts into st. The wrapper
// is the top-level closure a fire calls and calls the lowered entry
// directly: no frame between them. bind is not inlined: the copy of the
// closure the compiler makes for an inlined call site calls the ExecStats
// atomics instead of inlining them (Go 1.24: +10–25 ns on a ≈ 100 ns
// contention-gate.pol fire, 2-vCPU Intel Xeon VM).
//
//go:noinline
func (b *body) bind(st *policy.ExecStats) policy.CompiledFn {
	entry, name, kind, usesLS, usesOCC := b.entry, b.name, b.kind, b.usesLS, b.usesOCC
	return func(ctx *policy.Ctx, env policy.Env) (uint64, error) {
		if env == nil {
			env = policy.DefaultEnv
		}
		if ctx == nil || ctx.Layout.Kind != kind {
			return 0, &policy.RuntimeError{Name: name, PC: -1, Msg: "context kind mismatch"}
		}
		st.Runs.Add(1)
		st.JITRuns.Add(1)
		if faultinject.PolicyTrap.Enabled() {
			if flt, ok := faultinject.PolicyTrap.Fire(); ok {
				st.Faults.Add(1)
				return 0, &policy.RuntimeError{Name: name, PC: -1,
					Msg: fmt.Sprintf("injected trap: %v", flt.Err)}
			}
		}
		m := machPool.Get().(*mach)
		m.ctx, m.env = ctx, env
		if usesLS {
			m.lsr, _ = env.(policy.LockStatReader)
		}
		if usesOCC {
			m.ocs, _ = env.(policy.OCCSetter)
		}
		m.regs[policy.R1] = 0
		m.regs[policy.RFP] = 0
		m.insns, m.helpers, m.mapOps = 0, 0, 0
		m.ret, m.err = 0, nil
		entry(m)
		ret, err := m.ret, m.err
		st.Insns.Add(m.insns)
		if m.helpers != 0 {
			st.HelperCalls.Add(m.helpers)
		}
		if m.mapOps != 0 {
			st.MapOps.Add(m.mapOps)
		}
		m.ctx, m.env, m.lsr, m.ocs = nil, nil, nil, nil
		machPool.Put(m)
		if err != nil {
			st.Faults.Add(1)
			return 0, err
		}
		return ret, nil
	}
}

// MustCompile is Compile for tests and examples.
func MustCompile(p *policy.Program) policy.CompiledFn {
	fn, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return fn
}

func (c *compiler) lower() error {
	c.steps = make([]step, c.n)
	for pc := c.n - 1; pc >= 0; pc-- {
		if c.states[pc] == nil {
			continue
		}
		s, err := c.lowerInsn(pc)
		if err != nil {
			return err
		}
		if c.leaders[pc] {
			// Block head: batch-add the whole block's instruction
			// count; terminal closures correct by termAdj.
			add := c.blen[pc]
			inner := s
			s = func(m *mach) { m.insns += add; inner(m) }
		}
		c.steps[pc] = s
	}
	return nil
}

// faultStep is a closure that always faults with a fixed message —
// used when a verified-impossible path is statically certain to trip
// the VM's runtime check (the JIT must fault identically).
func (c *compiler) faultStep(pc int, msg string) step {
	adj := c.termAdj(pc)
	err := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: msg}
	return func(m *mach) { m.insns += adj; m.err = err }
}

func (c *compiler) lowerInsn(pc int) (step, error) {
	in := c.insns[pc]
	op := in.Op
	switch {
	case op == policy.OpExit:
		return c.lowerExit(pc)
	case op == policy.OpCall:
		return c.lowerCall(pc)
	case op == policy.OpLoadMapPtr:
		// Map identity is compile-time state; at runtime only the VM's
		// zero value offset is materialized.
		d := int(in.Dst)
		next := c.steps[pc+1]
		return func(m *mach) { m.regs[d] = 0; next(m) }, nil
	case op == policy.OpJa:
		// Fused: the jump is just its target's closure (its execution
		// is counted by its block's batched add).
		return c.steps[pc+1+int(in.Off)], nil
	case op.IsCondJump():
		return c.lowerCond(pc)
	case op.IsLoad():
		return c.lowerLoad(pc)
	case op.IsStore():
		return c.lowerStore(pc)
	case op.IsALU():
		return c.lowerALU(pc)
	}
	return nil, errUnsupportedf(pc, "unhandled opcode %s", op)
}

func (c *compiler) lowerExit(pc int) (step, error) {
	r0 := c.states[pc][policy.R0]
	adj := c.termAdj(pc)
	switch r0.kind {
	case kScalar:
		if r0.known {
			v := r0.c
			return func(m *mach) { m.insns += adj; m.ret = v }, nil
		}
		return func(m *mach) { m.insns += adj; m.ret = m.regs[policy.R0] }, nil
	case kNone:
		return nil, errUnsupportedf(pc, "exit with untyped R0")
	}
	return c.faultStep(pc, "exit with non-scalar R0"), nil
}

func (c *compiler) lowerCond(pc int) (step, error) {
	in := c.insns[pc]
	op := in.Op
	d, s := int(in.Dst), int(in.Src)
	switch c.res[pc] {
	case resTaken:
		return c.steps[pc+1+int(in.Off)], nil
	case resFall:
		return c.steps[pc+1], nil
	}
	tgt, fall := c.steps[pc+1+int(in.Off)], c.steps[pc+1]
	a := c.states[pc][d]
	if a.kind == kMapValOrNull {
		// Null check. A maybe-null register's materialized value is 0
		// on both refined edges (the VM keeps v=0 through refineNull),
		// so the closure is a pure branch on the backing slice.
		if op.UsesSrcReg() {
			return func(m *mach) {
				var av uint64
				if m.vals[d] != nil {
					av = 1
				}
				if condTakenJit(op, av, m.regs[s]) {
					tgt(m)
				} else {
					fall(m)
				}
			}, nil
		}
		b := uint64(in.Imm)
		t0, t1 := condTakenJit(op, 0, b), condTakenJit(op, 1, b)
		switch {
		case t0 && t1:
			return tgt, nil
		case !t0 && !t1:
			return fall, nil
		case t0: // taken iff null
			return func(m *mach) {
				if m.vals[d] == nil {
					tgt(m)
				} else {
					fall(m)
				}
			}, nil
		default: // taken iff non-null
			return func(m *mach) {
				if m.vals[d] != nil {
					tgt(m)
				} else {
					fall(m)
				}
			}, nil
		}
	}
	if op.UsesSrcReg() {
		return condStepReg(op, d, s, tgt, fall), nil
	}
	return condStepImm(op, d, uint64(in.Imm), tgt, fall), nil
}

func condStepImm(op policy.Op, d int, b uint64, tgt, fall step) step {
	sb := int64(b)
	switch op {
	case policy.OpJeqImm:
		return func(m *mach) {
			if m.regs[d] == b {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJneImm:
		return func(m *mach) {
			if m.regs[d] != b {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJgtImm:
		return func(m *mach) {
			if m.regs[d] > b {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJgeImm:
		return func(m *mach) {
			if m.regs[d] >= b {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJltImm:
		return func(m *mach) {
			if m.regs[d] < b {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJleImm:
		return func(m *mach) {
			if m.regs[d] <= b {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsgtImm:
		return func(m *mach) {
			if int64(m.regs[d]) > sb {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsgeImm:
		return func(m *mach) {
			if int64(m.regs[d]) >= sb {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsltImm:
		return func(m *mach) {
			if int64(m.regs[d]) < sb {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsleImm:
		return func(m *mach) {
			if int64(m.regs[d]) <= sb {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsetImm:
		return func(m *mach) {
			if m.regs[d]&b != 0 {
				tgt(m)
			} else {
				fall(m)
			}
		}
	}
	return nil
}

func condStepReg(op policy.Op, d, s int, tgt, fall step) step {
	switch op {
	case policy.OpJeqReg:
		return func(m *mach) {
			if m.regs[d] == m.regs[s] {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJneReg:
		return func(m *mach) {
			if m.regs[d] != m.regs[s] {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJgtReg:
		return func(m *mach) {
			if m.regs[d] > m.regs[s] {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJgeReg:
		return func(m *mach) {
			if m.regs[d] >= m.regs[s] {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJltReg:
		return func(m *mach) {
			if m.regs[d] < m.regs[s] {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJleReg:
		return func(m *mach) {
			if m.regs[d] <= m.regs[s] {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsgtReg:
		return func(m *mach) {
			if int64(m.regs[d]) > int64(m.regs[s]) {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsgeReg:
		return func(m *mach) {
			if int64(m.regs[d]) >= int64(m.regs[s]) {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsltReg:
		return func(m *mach) {
			if int64(m.regs[d]) < int64(m.regs[s]) {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsleReg:
		return func(m *mach) {
			if int64(m.regs[d]) <= int64(m.regs[s]) {
				tgt(m)
			} else {
				fall(m)
			}
		}
	case policy.OpJsetReg:
		return func(m *mach) {
			if m.regs[d]&m.regs[s] != 0 {
				tgt(m)
			} else {
				fall(m)
			}
		}
	}
	return nil
}

func loadLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeLE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

func (c *compiler) lowerLoad(pc int) (step, error) {
	in := c.insns[pc]
	d, s := int(in.Dst), int(in.Src)
	size := in.Op.AccessSize()
	off := int(in.Off)
	next := c.steps[pc+1]
	adj := c.termAdj(pc)
	ptr := c.states[pc][s]

	switch ptr.kind {
	case kPtrStack:
		if ptr.known {
			idx := int(int64(ptr.c)) + off + policy.StackSize
			if idx < 0 || idx+size > policy.StackSize {
				return c.faultStep(pc, "stack load out of bounds"), nil
			}
			switch size {
			case 1:
				return func(m *mach) { m.regs[d] = uint64(m.stack[idx]); next(m) }, nil
			case 2:
				return func(m *mach) { m.regs[d] = uint64(binary.LittleEndian.Uint16(m.stack[idx:])); next(m) }, nil
			case 4:
				return func(m *mach) { m.regs[d] = uint64(binary.LittleEndian.Uint32(m.stack[idx:])); next(m) }, nil
			default:
				return func(m *mach) { m.regs[d] = binary.LittleEndian.Uint64(m.stack[idx:]); next(m) }, nil
			}
		}
		oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "stack load out of bounds"}
		return func(m *mach) {
			idx := int(int64(m.regs[s])) + off + policy.StackSize
			if idx < 0 || idx+size > policy.StackSize {
				m.insns += adj
				m.err = oob
				return
			}
			m.regs[d] = loadLE(m.stack[idx:idx+size], size)
			next(m)
		}, nil

	case kPtrCtx:
		oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "ctx load out of bounds"}
		if ptr.known {
			o := int64(ptr.c) + int64(off)
			if o%8 != 0 || o < 0 {
				return c.faultStep(pc, "ctx load out of bounds"), nil
			}
			slot := int(o / 8)
			// Any access size reads the whole context word, exactly as
			// the VM does. Only the word-count check needs the runtime
			// ctx (context slices of one kind can differ in length).
			return func(m *mach) {
				w := m.ctx.Words
				if slot >= len(w) {
					m.insns += adj
					m.err = oob
					return
				}
				m.regs[d] = w[slot]
				next(m)
			}, nil
		}
		return func(m *mach) {
			o := int(int64(m.regs[s])) + off
			if o%8 != 0 || o < 0 || o/8 >= len(m.ctx.Words) {
				m.insns += adj
				m.err = oob
				return
			}
			m.regs[d] = m.ctx.Words[o/8]
			next(m)
		}, nil

	case kMapVal:
		oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "map value load out of bounds"}
		if ptr.known {
			o := int64(ptr.c) + int64(off)
			if size != 8 || o%8 != 0 || o < 0 {
				return c.faultStep(pc, "map value load out of bounds"), nil
			}
			w := int(o / 8)
			return func(m *mach) {
				v := m.vals[s]
				if w >= len(v) {
					m.insns += adj
					m.err = oob
					return
				}
				m.regs[d] = atomic.LoadUint64(&v[w])
				next(m)
			}, nil
		}
		return func(m *mach) {
			o := int(int64(m.regs[s])) + off
			if size != 8 || o%8 != 0 || o < 0 || o/8 >= len(m.vals[s]) {
				m.insns += adj
				m.err = oob
				return
			}
			m.regs[d] = atomic.LoadUint64(&m.vals[s][o/8])
			next(m)
		}, nil
	}
	return nil, errUnsupportedf(pc, "load through %s register", ptr.kind)
}

func (c *compiler) lowerStore(pc int) (step, error) {
	in := c.insns[pc]
	d, s := int(in.Dst), int(in.Src)
	size := in.Op.AccessSize()
	off := int(in.Off)
	useSrc := in.Op.UsesSrcReg()
	imm := uint64(in.Imm)
	next := c.steps[pc+1]
	adj := c.termAdj(pc)
	ptr := c.states[pc][d]

	switch ptr.kind {
	case kPtrStack:
		if ptr.known {
			idx := int(int64(ptr.c)) + off + policy.StackSize
			if idx < 0 || idx+size > policy.StackSize {
				return c.faultStep(pc, "stack store out of bounds"), nil
			}
			if useSrc {
				switch size {
				case 1:
					return func(m *mach) { m.stack[idx] = byte(m.regs[s]); next(m) }, nil
				case 2:
					return func(m *mach) { binary.LittleEndian.PutUint16(m.stack[idx:], uint16(m.regs[s])); next(m) }, nil
				case 4:
					return func(m *mach) { binary.LittleEndian.PutUint32(m.stack[idx:], uint32(m.regs[s])); next(m) }, nil
				default:
					return func(m *mach) { binary.LittleEndian.PutUint64(m.stack[idx:], m.regs[s]); next(m) }, nil
				}
			}
			// Constant store: pre-encode where the width allows.
			switch size {
			case 1:
				bv := byte(imm)
				return func(m *mach) { m.stack[idx] = bv; next(m) }, nil
			case 2:
				v := uint16(imm)
				return func(m *mach) { binary.LittleEndian.PutUint16(m.stack[idx:], v); next(m) }, nil
			case 4:
				v := uint32(imm)
				return func(m *mach) { binary.LittleEndian.PutUint32(m.stack[idx:], v); next(m) }, nil
			default:
				return func(m *mach) { binary.LittleEndian.PutUint64(m.stack[idx:], imm); next(m) }, nil
			}
		}
		oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "stack store out of bounds"}
		return func(m *mach) {
			idx := int(int64(m.regs[d])) + off + policy.StackSize
			if idx < 0 || idx+size > policy.StackSize {
				m.insns += adj
				m.err = oob
				return
			}
			v := imm
			if useSrc {
				v = m.regs[s]
			}
			storeLE(m.stack[idx:idx+size], size, v)
			next(m)
		}, nil

	case kMapVal:
		oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "map value store out of bounds"}
		if ptr.known {
			o := int64(ptr.c) + int64(off)
			if size != 8 || o%8 != 0 || o < 0 {
				return c.faultStep(pc, "map value store out of bounds"), nil
			}
			w := int(o / 8)
			if useSrc {
				return func(m *mach) {
					v := m.vals[d]
					if w >= len(v) {
						m.insns += adj
						m.err = oob
						return
					}
					atomic.StoreUint64(&v[w], m.regs[s])
					next(m)
				}, nil
			}
			return func(m *mach) {
				v := m.vals[d]
				if w >= len(v) {
					m.insns += adj
					m.err = oob
					return
				}
				atomic.StoreUint64(&v[w], imm)
				next(m)
			}, nil
		}
		return func(m *mach) {
			o := int(int64(m.regs[d])) + off
			if size != 8 || o%8 != 0 || o < 0 || o/8 >= len(m.vals[d]) {
				m.insns += adj
				m.err = oob
				return
			}
			v := imm
			if useSrc {
				v = m.regs[s]
			}
			atomic.StoreUint64(&m.vals[d][o/8], v)
			next(m)
		}, nil
	}
	return nil, errUnsupportedf(pc, "store through %s register", ptr.kind)
}

func (c *compiler) lowerALU(pc int) (step, error) {
	in := c.insns[pc]
	op := in.Op
	d, s := int(in.Dst), int(in.Src)
	next := c.steps[pc+1]

	switch op {
	case policy.OpMovImm:
		v := uint64(in.Imm)
		return func(m *mach) { m.regs[d] = v; next(m) }, nil
	case policy.OpMovReg:
		switch c.states[pc][s].kind {
		case kMapVal, kMapValOrNull:
			return func(m *mach) { m.regs[d] = m.regs[s]; m.vals[d] = m.vals[s]; next(m) }, nil
		}
		return func(m *mach) { m.regs[d] = m.regs[s]; next(m) }, nil
	}

	a := c.states[pc][d]
	switch a.kind {
	case kPtrStack, kPtrCtx, kMapVal:
		// Pointer arithmetic: offset delta, negated only for sub
		// (matching the VM for every ALU op on a pointer).
		if op == policy.OpSubImm || op == policy.OpSubReg {
			if op.UsesSrcReg() {
				return func(m *mach) { m.regs[d] -= m.regs[s]; next(m) }, nil
			}
			dv := uint64(-int64(in.Imm))
			return func(m *mach) { m.regs[d] += dv; next(m) }, nil
		}
		if op.UsesSrcReg() {
			return func(m *mach) { m.regs[d] += m.regs[s]; next(m) }, nil
		}
		dv := uint64(in.Imm)
		return func(m *mach) { m.regs[d] += dv; next(m) }, nil
	case kScalar:
		var b absVal
		if op.UsesSrcReg() {
			b = c.states[pc][s]
		} else {
			b = absVal{kind: kScalar, known: true, c: uint64(in.Imm)}
		}
		if a.known && b.known {
			v := aluConst(op, a.c, b.c)
			return func(m *mach) { m.regs[d] = v; next(m) }, nil
		}
		if st := scalarALUStep(op, d, s, uint64(in.Imm), next); st != nil {
			return st, nil
		}
	}
	return nil, errUnsupportedf(pc, "alu %s on %s register", op, a.kind)
}

func scalarALUStep(op policy.Op, d, s int, imm uint64, next step) step {
	switch op {
	case policy.OpAddImm:
		return func(m *mach) { m.regs[d] += imm; next(m) }
	case policy.OpAddReg:
		return func(m *mach) { m.regs[d] += m.regs[s]; next(m) }
	case policy.OpSubImm:
		return func(m *mach) { m.regs[d] -= imm; next(m) }
	case policy.OpSubReg:
		return func(m *mach) { m.regs[d] -= m.regs[s]; next(m) }
	case policy.OpMulImm:
		return func(m *mach) { m.regs[d] *= imm; next(m) }
	case policy.OpMulReg:
		return func(m *mach) { m.regs[d] *= m.regs[s]; next(m) }
	case policy.OpDivImm:
		if imm == 0 {
			return func(m *mach) { m.regs[d] = 0; next(m) }
		}
		return func(m *mach) { m.regs[d] /= imm; next(m) }
	case policy.OpDivReg:
		return func(m *mach) {
			if b := m.regs[s]; b == 0 {
				m.regs[d] = 0
			} else {
				m.regs[d] /= b
			}
			next(m)
		}
	case policy.OpModImm:
		if imm == 0 {
			return next // a % 0 = a: no-op
		}
		return func(m *mach) { m.regs[d] %= imm; next(m) }
	case policy.OpModReg:
		return func(m *mach) {
			if b := m.regs[s]; b != 0 {
				m.regs[d] %= b
			}
			next(m)
		}
	case policy.OpAndImm:
		return func(m *mach) { m.regs[d] &= imm; next(m) }
	case policy.OpAndReg:
		return func(m *mach) { m.regs[d] &= m.regs[s]; next(m) }
	case policy.OpOrImm:
		return func(m *mach) { m.regs[d] |= imm; next(m) }
	case policy.OpOrReg:
		return func(m *mach) { m.regs[d] |= m.regs[s]; next(m) }
	case policy.OpXorImm:
		return func(m *mach) { m.regs[d] ^= imm; next(m) }
	case policy.OpXorReg:
		return func(m *mach) { m.regs[d] ^= m.regs[s]; next(m) }
	case policy.OpLshImm:
		sh := imm & 63
		return func(m *mach) { m.regs[d] <<= sh; next(m) }
	case policy.OpLshReg:
		return func(m *mach) { m.regs[d] <<= m.regs[s] & 63; next(m) }
	case policy.OpRshImm:
		sh := imm & 63
		return func(m *mach) { m.regs[d] >>= sh; next(m) }
	case policy.OpRshReg:
		return func(m *mach) { m.regs[d] >>= m.regs[s] & 63; next(m) }
	case policy.OpArshImm:
		sh := imm & 63
		return func(m *mach) { m.regs[d] = uint64(int64(m.regs[d]) >> sh); next(m) }
	case policy.OpArshReg:
		return func(m *mach) { m.regs[d] = uint64(int64(m.regs[d]) >> (m.regs[s] & 63)); next(m) }
	case policy.OpNeg:
		return func(m *mach) { m.regs[d] = -m.regs[d]; next(m) }
	}
	return nil
}

// stackRegionFn resolves a helper's stack-buffer argument (no
// instruction offset — helper args are plain pointers, as in the VM's
// stackRegion). Static offsets compile to a fixed slice; dynamic ones
// keep the runtime bounds check with the VM's exact fault message.
func (c *compiler) stackRegionFn(pc, reg, size int) func(m *mach) ([]byte, bool) {
	adj := c.termAdj(pc)
	oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "stack buffer out of bounds"}
	r := c.states[pc][reg]
	if r.known {
		o := int(int64(r.c)) + policy.StackSize
		if o < 0 || o+size > policy.StackSize {
			return func(m *mach) ([]byte, bool) { m.insns += adj; m.err = oob; return nil, false }
		}
		end := o + size
		return func(m *mach) ([]byte, bool) { return m.stack[o:end], true }
	}
	return func(m *mach) ([]byte, bool) {
		o := int(int64(m.regs[reg])) + policy.StackSize
		if o < 0 || o+size > policy.StackSize {
			m.insns += adj
			m.err = oob
			return nil, false
		}
		return m.stack[o : o+size], true
	}
}

func (c *compiler) lowerCall(pc int) (step, error) {
	in := c.insns[pc]
	h := policy.HelperID(in.Imm)
	st := c.states[pc]
	next := c.steps[pc+1]
	adj := c.termAdj(pc)
	name := c.p.Name
	isMapOp := h >= policy.HelperMapLookup && h <= policy.HelperMapAdd

	// trap handles the fault-injection sites every helper passes
	// through, and the helper/map-op counters, in the VM's order.
	trap := func(m *mach) bool {
		m.helpers++
		if faultinject.PolicyHelper.Enabled() {
			if flt, ok := faultinject.PolicyHelper.Fire(); ok {
				if flt.Delay > 0 {
					time.Sleep(flt.Delay)
				}
				m.insns += adj
				m.err = &policy.RuntimeError{Name: name, PC: pc,
					Msg: fmt.Sprintf("helper %s: %v", h, flt.Err)}
				return false
			}
		}
		if isMapOp {
			m.mapOps++
			if faultinject.PolicyMapOp.Enabled() {
				if flt, ok := faultinject.PolicyMapOp.Fire(); ok {
					m.insns += adj
					m.err = &policy.RuntimeError{Name: name, PC: pc,
						Msg: fmt.Sprintf("map op %s: %v", h, flt.Err)}
					return false
				}
			}
		}
		return true
	}

	switch h {
	case policy.HelperMapLookup, policy.HelperMapUpdate, policy.HelperMapDelete, policy.HelperMapAdd:
		return c.lowerMapCall(pc, h, trap, next)

	case policy.HelperKtimeNS:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.regs[policy.R0] = uint64(m.env.NowNS())
			next(m)
		}, nil
	case policy.HelperCPU:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.regs[policy.R0] = uint64(m.env.CPU())
			next(m)
		}, nil
	case policy.HelperNUMANode:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.regs[policy.R0] = uint64(m.env.NUMANode())
			next(m)
		}, nil
	case policy.HelperTaskID:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.regs[policy.R0] = uint64(m.env.TaskID())
			next(m)
		}, nil
	case policy.HelperTaskPrio:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.regs[policy.R0] = uint64(m.env.TaskPriority())
			next(m)
		}, nil
	case policy.HelperRand:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.regs[policy.R0] = m.env.Rand()
			next(m)
		}, nil
	case policy.HelperTrace:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			m.env.Trace(m.regs[policy.R1])
			m.regs[policy.R0] = 0
			next(m)
		}, nil
	case policy.HelperLockStats:
		// The LockStatReader probe happened once at run entry (m.lsr);
		// the inlined field load is a nil check away.
		return func(m *mach) {
			if !trap(m) {
				return
			}
			if m.lsr != nil {
				m.regs[policy.R0] = m.lsr.LockStat(m.regs[policy.R1])
			} else {
				m.regs[policy.R0] = 0
			}
			next(m)
		}, nil
	case policy.HelperOCCSet:
		// Same shape as lock_stats_read: the OCCSetter probe happened
		// once at run entry (m.ocs); no setter means "no change".
		return func(m *mach) {
			if !trap(m) {
				return
			}
			if m.ocs != nil {
				m.regs[policy.R0] = m.ocs.OCCSet(m.regs[policy.R1])
			} else {
				m.regs[policy.R0] = 0
			}
			next(m)
		}, nil
	}
	_ = st
	return nil, errUnsupportedf(pc, "unknown helper %d", int64(h))
}

// lowerMapCall compiles the four map helpers against their
// compile-time-pinned map: direct dispatch to the concrete map's
// UpdateRaw/LookupOrInit fast paths, with static key/value stack
// regions when the dataflow knows the pointer offsets (it almost
// always does — the DSL emits `fp-K` patterns).
func (c *compiler) lowerMapCall(pc int, h policy.HelperID, trap func(*mach) bool, next step) (step, error) {
	st := c.states[pc]
	mi := st[policy.R1].mapIdx
	mp := c.p.Maps[mi]
	ks := mp.KeySize()
	r2 := st[policy.R2]
	adj := c.termAdj(pc)
	oob := &policy.RuntimeError{Name: c.p.Name, PC: pc, Msg: "stack buffer out of bounds"}

	keyStatic := false
	var ko, koEnd int
	if r2.known {
		o := int(int64(r2.c)) + policy.StackSize
		if o >= 0 && o+ks <= policy.StackSize {
			keyStatic, ko, koEnd = true, o, o+ks
		} else {
			// Statically certain runtime fault: count, fire sites, trip.
			return func(m *mach) {
				if !trap(m) {
					return
				}
				m.insns += adj
				m.err = oob
			}, nil
		}
	}
	keyFn := c.stackRegionFn(pc, int(policy.R2), ks)

	switch h {
	case policy.HelperMapLookup:
		if keyStatic {
			return func(m *mach) {
				if !trap(m) {
					return
				}
				m.vals[policy.R0] = mp.Lookup(m.stack[ko:koEnd], m.env.CPU())
				m.regs[policy.R0] = 0
				next(m)
			}, nil
		}
		return func(m *mach) {
			if !trap(m) {
				return
			}
			key, ok := keyFn(m)
			if !ok {
				return
			}
			m.vals[policy.R0] = mp.Lookup(key, m.env.CPU())
			m.regs[policy.R0] = 0
			next(m)
		}, nil

	case policy.HelperMapAdd:
		if loi, ok := mp.(lookupOrIniter); ok {
			if keyStatic {
				return func(m *mach) {
					if !trap(m) {
						return
					}
					v := loi.LookupOrInit(m.stack[ko:koEnd], m.env.CPU())
					if v == nil {
						m.regs[policy.R0] = ^uint64(0)
					} else {
						atomic.AddUint64(&v[0], m.regs[policy.R3])
						m.regs[policy.R0] = 0
					}
					next(m)
				}, nil
			}
			return func(m *mach) {
				if !trap(m) {
					return
				}
				key, ok := keyFn(m)
				if !ok {
					return
				}
				v := loi.LookupOrInit(key, m.env.CPU())
				if v == nil {
					m.regs[policy.R0] = ^uint64(0)
				} else {
					atomic.AddUint64(&v[0], m.regs[policy.R3])
					m.regs[policy.R0] = 0
				}
				next(m)
			}, nil
		}
		return func(m *mach) {
			if !trap(m) {
				return
			}
			key, ok := keyFn(m)
			if !ok {
				return
			}
			v := mp.Lookup(key, m.env.CPU())
			if v == nil {
				m.regs[policy.R0] = ^uint64(0)
			} else {
				atomic.AddUint64(&v[0], m.regs[policy.R3])
				m.regs[policy.R0] = 0
			}
			next(m)
		}, nil

	case policy.HelperMapUpdate:
		vs := mp.ValueSize()
		valFn := c.stackRegionFn(pc, int(policy.R3), vs)
		if ru, ok := mp.(rawUpdater); ok {
			return func(m *mach) {
				if !trap(m) {
					return
				}
				key, ok := keyFn(m)
				if !ok {
					return
				}
				raw, ok := valFn(m)
				if !ok {
					return
				}
				if ru.UpdateRaw(key, raw, m.env.CPU()) != nil {
					m.regs[policy.R0] = ^uint64(0)
				} else {
					m.regs[policy.R0] = 0
				}
				next(m)
			}, nil
		}
		// Word-slice fallback for custom Map implementations
		// (allocates, exactly like the VM's fallback).
		return func(m *mach) {
			if !trap(m) {
				return
			}
			key, ok := keyFn(m)
			if !ok {
				return
			}
			raw, ok := valFn(m)
			if !ok {
				return
			}
			words := make([]uint64, vs/8)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
			if mp.Update(key, words, m.env.CPU()) != nil {
				m.regs[policy.R0] = ^uint64(0)
			} else {
				m.regs[policy.R0] = 0
			}
			next(m)
		}, nil

	case policy.HelperMapDelete:
		return func(m *mach) {
			if !trap(m) {
				return
			}
			key, ok := keyFn(m)
			if !ok {
				return
			}
			if mp.Delete(key) != nil {
				m.regs[policy.R0] = ^uint64(0)
			} else {
				m.regs[policy.R0] = 0
			}
			next(m)
		}, nil
	}
	return nil, errUnsupportedf(pc, "unhandled map helper %s", h)
}
