// Package jit lowers verified cBPF policy programs to fused Go
// closures — the compilation tier the interpreter-vs-JIT split of "The
// eBPF Runtime in the Linux Kernel" calls for. Where the VM dispatches
// an opcode switch per instruction on boxed typed registers, this tier
// compiles each instruction into a closure that calls its successor
// directly: no pc, no dispatch loop, no runtime register types. It is
// the only compiled tier; the VM stays as executable specification,
// fallback and differential reference.
//
// The verifier's guarantees are what make the lowering sound: programs
// are loop-free (forward jumps only), every register has a single
// static type at every program point along verified paths, and stack
// reads are dominated by writes. A forward abstract-interpretation
// pass recomputes those types (conservatively — any program it cannot
// type falls back to the VM tier, it is never run wrong), pins each
// map-helper call to its concrete map at compile time, folds constant
// immediates, and resolves branches whose operands are compile-time
// constants.
//
// Equivalence with the reference interpreter is an explicit, tested
// contract: identical R0, identical RuntimeError faults (pc and
// message), identical ExecStats deltas (instruction counting included),
// identical map mutations and trace sequences, and the same
// fault-injection sites firing in the same order. See diff.go,
// jit_test.go, fuzz_test.go and golden_test.go.
package jit

import (
	"errors"
	"fmt"

	"concord/internal/policy"
)

// ErrUnsupported marks a verified program the lowering cannot (or will
// not) specialize. The framework keeps such programs on the VM tier;
// returning it is a tier decision, never a correctness problem.
var ErrUnsupported = errors.New("policy jit: lowering unsupported")

func errUnsupportedf(pc int, format string, args ...any) error {
	return fmt.Errorf("%w: pc %d: %s", ErrUnsupported, pc, fmt.Sprintf(format, args...))
}

// regKind is the abstract type of a register at one program point. It
// mirrors the verifier's lattice; kNone covers both "never written" and
// "conflicting kinds merged at a join" — using such a register aborts
// compilation (VM fallback).
type regKind uint8

const (
	kNone regKind = iota
	kScalar
	kPtrStack     // runtime reg value = stack offset (negative, from RFP)
	kPtrCtx       // runtime reg value = byte offset into ctx words
	kMapPtr       // map identity is compile-time constant (mapIdx)
	kMapVal       // runtime: vals[r] backing slice + reg byte offset
	kMapValOrNull // lookup result before its null check
)

var regKindNames = [...]string{"untyped", "scalar", "stack_ptr", "ctx_ptr", "map_ptr", "map_value", "map_value_or_null"}

func (k regKind) String() string {
	if int(k) < len(regKindNames) {
		return regKindNames[k]
	}
	return fmt.Sprintf("regKind(%d)", uint8(k))
}

// absVal is one register's abstract value: its kind, the map it refers
// to (for map kinds), and — when derivable — its exact runtime value
// (scalar constant or pointer offset), which drives constant folding,
// dead-branch elision and specialized memory closures.
type absVal struct {
	kind   regKind
	mapIdx int
	known  bool
	c      uint64
}

type absState [policy.NumRegs]absVal

// mergeVal joins two abstract values at a control-flow join point.
// Conflicts collapse to kNone; a kNone register may flow anywhere, it
// just cannot be used.
func mergeVal(a, b absVal) absVal {
	if a.kind != b.kind {
		return absVal{}
	}
	switch a.kind {
	case kMapPtr, kMapVal, kMapValOrNull:
		if a.mapIdx != b.mapIdx {
			return absVal{}
		}
	}
	out := a
	if !(a.known && b.known && a.c == b.c) {
		out.known = false
		out.c = 0
	}
	return out
}

// refineAbs mirrors the VM's refineNull: the abstract value of a
// maybe-null map pointer on the two edges of its null check.
func refineAbs(a absVal, nonNull bool) absVal {
	if nonNull {
		return absVal{kind: kMapVal, mapIdx: a.mapIdx, known: true}
	}
	return absVal{kind: kScalar, known: true, c: 0}
}

// Branch resolutions recorded when both operands are compile-time
// constants: the dead edge is never lowered.
const (
	resDynamic uint8 = iota
	resTaken
	resFall
)

type compiler struct {
	p     *policy.Program
	insns []policy.Instruction
	n     int

	// Dataflow results: states[pc] is the merged abstract register
	// state on entry to pc (nil: statically unreachable).
	states []*absState
	res    []uint8

	// Basic-block geometry for batched instruction accounting (see
	// blocks): leaders mark block heads, offIn/blen give each pc's
	// offset within and the length of its block.
	leaders []bool
	offIn   []int64
	blen    []int64

	steps []step

	usesLockStats bool
	usesOCCSet    bool
}

func (c *compiler) compile() error {
	if c.n == 0 {
		return errUnsupportedf(0, "empty program")
	}
	if err := c.blocks(); err != nil {
		return err
	}
	if err := c.analyze(); err != nil {
		return err
	}
	return c.lower()
}

// blocks validates the jump structure (forward, in range — the
// verifier guarantees this; violations just mean VM fallback) and
// computes basic-block geometry.
//
// Instruction accounting leans on it: the VM counts every instruction
// whose dispatch completes, i.e. every executed instruction EXCEPT the
// terminating one (exit, fault) — jumps included. Rather than pay an
// increment per closure, each block leader adds the whole block length
// up front and terminal closures apply a (precomputed, usually
// negative) correction offIn-blen, so a run's total equals the VM's
// count exactly. That exactness is load-bearing: the differential
// harness asserts identical ExecStats deltas.
func (c *compiler) blocks() error {
	n := c.n
	c.leaders = make([]bool, n)
	c.leaders[0] = true
	for pc, in := range c.insns {
		switch {
		case in.Op == policy.OpJa || in.Op.IsCondJump():
			t := pc + 1 + int(in.Off)
			if t <= pc || t >= n {
				return errUnsupportedf(pc, "jump target %d out of range", t)
			}
			c.leaders[t] = true
			if pc+1 < n {
				c.leaders[pc+1] = true
			}
		case in.Op == policy.OpExit:
			if pc+1 < n {
				c.leaders[pc+1] = true
			}
		}
	}
	c.offIn = make([]int64, n)
	c.blen = make([]int64, n)
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || c.leaders[pc] {
			for i := start; i < pc; i++ {
				c.offIn[i] = int64(i - start)
				c.blen[i] = int64(pc - start)
			}
			start = pc
		}
	}
	return nil
}

// termAdj is the instruction-count correction a terminating closure at
// pc applies on top of its block leader's batched add: the terminating
// instruction itself is not counted (matching the VM), and the rest of
// its block never runs.
func (c *compiler) termAdj(pc int) int64 { return c.offIn[pc] - c.blen[pc] }

// analyze runs the forward dataflow. All edges are forward (blocks
// validated that), so one pass in pc order sees every predecessor
// before its successor.
func (c *compiler) analyze() error {
	c.states = make([]*absState, c.n)
	c.res = make([]uint8, c.n)
	entry := absState{}
	entry[policy.R1] = absVal{kind: kPtrCtx, known: true}
	entry[policy.RFP] = absVal{kind: kPtrStack, known: true}
	c.states[0] = &entry
	for pc := 0; pc < c.n; pc++ {
		if c.states[pc] == nil {
			continue
		}
		if err := c.transfer(pc); err != nil {
			return err
		}
	}
	return nil
}

// edge merges an out-state into a successor.
func (c *compiler) edge(from, to int, st absState) error {
	if to <= from || to >= c.n {
		return errUnsupportedf(from, "control flows to %d, out of range", to)
	}
	if cur := c.states[to]; cur == nil {
		cp := st
		c.states[to] = &cp
	} else {
		for r := range cur {
			cur[r] = mergeVal(cur[r], st[r])
		}
	}
	return nil
}

func (c *compiler) transfer(pc int) error {
	in := c.insns[pc]
	st := *c.states[pc]
	op := in.Op
	d, s := int(in.Dst), int(in.Src)
	if d >= policy.NumRegs || s >= policy.NumRegs {
		return errUnsupportedf(pc, "register out of range")
	}

	switch {
	case op == policy.OpExit:
		// Terminal; R0's kind is checked when lowering.
		return nil

	case op == policy.OpCall:
		return c.transferCall(pc, st)

	case op == policy.OpLoadMapPtr:
		mi := int(in.Imm)
		if mi < 0 || mi >= len(c.p.Maps) {
			return errUnsupportedf(pc, "map index %d out of range", mi)
		}
		st[d] = absVal{kind: kMapPtr, mapIdx: mi, known: true}
		return c.edge(pc, pc+1, st)

	case op == policy.OpJa:
		return c.edge(pc, pc+1+int(in.Off), st)

	case op.IsCondJump():
		a := st[d]
		if a.kind == kNone {
			return errUnsupportedf(pc, "branch on untyped register")
		}
		var b absVal
		if op.UsesSrcReg() {
			b = st[s]
			if b.kind == kNone {
				return errUnsupportedf(pc, "branch against untyped register")
			}
		} else {
			b = absVal{kind: kScalar, known: true, c: uint64(in.Imm)}
		}
		tgt := pc + 1 + int(in.Off)
		if a.kind == kMapValOrNull {
			// Null check: refine each edge like the VM/verifier do.
			tkSt, flSt := st, st
			tkSt[d] = refineAbs(a, op == policy.OpJneImm)
			flSt[d] = refineAbs(a, op == policy.OpJeqImm)
			if err := c.edge(pc, tgt, tkSt); err != nil {
				return err
			}
			return c.edge(pc, pc+1, flSt)
		}
		if a.kind == kScalar && a.known && b.known {
			// Both operands constant: the branch resolves at compile
			// time and only the live edge exists.
			if condTakenJit(op, a.c, b.c) {
				c.res[pc] = resTaken
				return c.edge(pc, tgt, st)
			}
			c.res[pc] = resFall
			return c.edge(pc, pc+1, st)
		}
		if err := c.edge(pc, tgt, st); err != nil {
			return err
		}
		return c.edge(pc, pc+1, st)

	case op.IsLoad():
		switch st[s].kind {
		case kPtrStack, kPtrCtx, kMapVal:
		default:
			return errUnsupportedf(pc, "load through %s register", st[s].kind)
		}
		st[d] = absVal{kind: kScalar}
		return c.edge(pc, pc+1, st)

	case op.IsStore():
		switch st[d].kind {
		case kPtrStack, kMapVal:
		default:
			return errUnsupportedf(pc, "store through %s register", st[d].kind)
		}
		if op.UsesSrcReg() && st[s].kind != kScalar {
			return errUnsupportedf(pc, "store of %s register", st[s].kind)
		}
		return c.edge(pc, pc+1, st)

	case op.IsALU():
		return c.transferALU(pc, st)
	}
	return errUnsupportedf(pc, "unhandled opcode %s", op)
}

func (c *compiler) transferALU(pc int, st absState) error {
	in := c.insns[pc]
	op := in.Op
	d, s := int(in.Dst), int(in.Src)
	switch op {
	case policy.OpMovImm:
		st[d] = absVal{kind: kScalar, known: true, c: uint64(in.Imm)}
	case policy.OpMovReg:
		if st[s].kind == kNone {
			return errUnsupportedf(pc, "mov from untyped register")
		}
		st[d] = st[s]
	default:
		a := st[d]
		var b absVal
		if op.UsesSrcReg() {
			b = st[s]
			if b.kind == kNone {
				return errUnsupportedf(pc, "alu against untyped register")
			}
		} else {
			b = absVal{kind: kScalar, known: true, c: uint64(in.Imm)}
		}
		switch a.kind {
		case kPtrStack, kPtrCtx, kMapVal:
			// Verified pointer arithmetic adjusts the offset. The VM
			// applies the operand as a delta for every non-mov ALU op,
			// negated only for sub; matched exactly here.
			if a.known && b.known {
				delta := int64(b.c)
				if op == policy.OpSubImm || op == policy.OpSubReg {
					delta = -delta
				}
				a.c = uint64(int64(a.c) + delta)
			} else {
				a.known = false
				a.c = 0
			}
			st[d] = a
		case kScalar:
			if a.known && b.known {
				st[d] = absVal{kind: kScalar, known: true, c: aluConst(op, a.c, b.c)}
			} else {
				st[d] = absVal{kind: kScalar}
			}
		default:
			return errUnsupportedf(pc, "alu on %s register", a.kind)
		}
	}
	return c.edge(pc, pc+1, st)
}

func (c *compiler) transferCall(pc int, st absState) error {
	in := c.insns[pc]
	h := policy.HelperID(in.Imm)
	var out absVal
	switch h {
	case policy.HelperMapLookup, policy.HelperMapUpdate, policy.HelperMapDelete, policy.HelperMapAdd:
		r1 := st[policy.R1]
		if r1.kind != kMapPtr {
			return errUnsupportedf(pc, "%s: R1 is %s, not a pinned map", h, r1.kind)
		}
		if r1.mapIdx < 0 || r1.mapIdx >= len(c.p.Maps) {
			return errUnsupportedf(pc, "%s: map index out of range", h)
		}
		if st[policy.R2].kind != kPtrStack {
			return errUnsupportedf(pc, "%s: key register is %s", h, st[policy.R2].kind)
		}
		switch h {
		case policy.HelperMapUpdate:
			if st[policy.R3].kind != kPtrStack {
				return errUnsupportedf(pc, "%s: value register is %s", h, st[policy.R3].kind)
			}
			out = absVal{kind: kScalar}
		case policy.HelperMapAdd:
			if st[policy.R3].kind != kScalar {
				return errUnsupportedf(pc, "%s: delta register is %s", h, st[policy.R3].kind)
			}
			out = absVal{kind: kScalar}
		case policy.HelperMapLookup:
			out = absVal{kind: kMapValOrNull, mapIdx: r1.mapIdx, known: true}
		default:
			out = absVal{kind: kScalar}
		}
	case policy.HelperKtimeNS, policy.HelperCPU, policy.HelperNUMANode,
		policy.HelperTaskID, policy.HelperTaskPrio, policy.HelperRand:
		out = absVal{kind: kScalar}
	case policy.HelperTrace:
		if st[policy.R1].kind != kScalar {
			return errUnsupportedf(pc, "%s: R1 is %s", h, st[policy.R1].kind)
		}
		out = absVal{kind: kScalar, known: true, c: 0}
	case policy.HelperLockStats:
		if st[policy.R1].kind != kScalar {
			return errUnsupportedf(pc, "%s: R1 is %s", h, st[policy.R1].kind)
		}
		c.usesLockStats = true
		out = absVal{kind: kScalar}
	case policy.HelperOCCSet:
		if st[policy.R1].kind != kScalar {
			return errUnsupportedf(pc, "%s: R1 is %s", h, st[policy.R1].kind)
		}
		c.usesOCCSet = true
		out = absVal{kind: kScalar}
	default:
		return errUnsupportedf(pc, "unknown helper %d", int64(h))
	}
	// The VM clears R1-R5 after a call; statically they become
	// unusable, so the lowered code never needs to zero them.
	for r := policy.R1; r <= policy.R5; r++ {
		st[r] = absVal{}
	}
	st[policy.R0] = out
	return c.edge(pc, pc+1, st)
}

// condTakenJit mirrors the VM's condTaken exactly.
func condTakenJit(op policy.Op, a, b uint64) bool {
	switch op {
	case policy.OpJeqImm, policy.OpJeqReg:
		return a == b
	case policy.OpJneImm, policy.OpJneReg:
		return a != b
	case policy.OpJgtImm, policy.OpJgtReg:
		return a > b
	case policy.OpJgeImm, policy.OpJgeReg:
		return a >= b
	case policy.OpJltImm, policy.OpJltReg:
		return a < b
	case policy.OpJleImm, policy.OpJleReg:
		return a <= b
	case policy.OpJsgtImm, policy.OpJsgtReg:
		return int64(a) > int64(b)
	case policy.OpJsgeImm, policy.OpJsgeReg:
		return int64(a) >= int64(b)
	case policy.OpJsltImm, policy.OpJsltReg:
		return int64(a) < int64(b)
	case policy.OpJsleImm, policy.OpJsleReg:
		return int64(a) <= int64(b)
	case policy.OpJsetImm, policy.OpJsetReg:
		return a&b != 0
	}
	return false
}

// aluConst mirrors the VM's aluExec exactly (used for compile-time
// constant folding; the runtime closures implement the same table).
func aluConst(op policy.Op, a, b uint64) uint64 {
	switch op {
	case policy.OpAddImm, policy.OpAddReg:
		return a + b
	case policy.OpSubImm, policy.OpSubReg:
		return a - b
	case policy.OpMulImm, policy.OpMulReg:
		return a * b
	case policy.OpDivImm, policy.OpDivReg:
		if b == 0 {
			return 0
		}
		return a / b
	case policy.OpModImm, policy.OpModReg:
		if b == 0 {
			return a
		}
		return a % b
	case policy.OpAndImm, policy.OpAndReg:
		return a & b
	case policy.OpOrImm, policy.OpOrReg:
		return a | b
	case policy.OpXorImm, policy.OpXorReg:
		return a ^ b
	case policy.OpLshImm, policy.OpLshReg:
		return a << (b & 63)
	case policy.OpRshImm, policy.OpRshReg:
		return a >> (b & 63)
	case policy.OpArshImm, policy.OpArshReg:
		return uint64(int64(a) >> (b & 63))
	case policy.OpNeg:
		return -a
	}
	return 0
}
