package jit

import (
	"fmt"
	"slices"
	"sync"

	"concord/internal/faultinject"
	"concord/internal/policy"
)

// The decision-tree lowering. Most shipped policies call no helper and
// touch no map: they compare a few context words with each other or with
// constants and return a constant. For such a program the closure tier's
// fixed cost — a pooled machine, a marshalled context — is the whole run.
// LowerTree proves the shape by executing every path symbolically and
// keeps the result as a flat tree whose only inputs are context words,
// so the caller can evaluate it over wherever those words already live
// (RunTree) and never build a context at all.
//
// Grammar. A value is a constant, a context word, or ONE ALU operation of
// a context word with a constant (word on the left, or either side of a
// commutative operation); constant⋄constant folds. Registers and aligned
// 8-byte stack slots carry values (the DSL spills through the stack);
// R1/RFP-derived pointers move by constants only. Every conditional jump
// compares two values — one whose operands are both constant folds, as in
// the closure lowering — and every exit returns a value. Anything else (a
// helper call, a map, a narrow or unaligned stack access, a second
// operation on a derived value, two words in one ALU operation, more than
// maxTreeNodes nodes) stops the lowering at that pc, and the program keeps
// the closure tier.
//
// Equivalence with the VM is the same contract the closures hold, checked
// by the same DiffHarness: identical R0, identical fault (a context word
// beyond the words supplied faults at the pc of its load, with the
// instruction count up to it), identical ExecStats deltas. Each word is
// read at most once per run, at its first load on the path taken, so a
// live source that changes mid-run cannot produce a decision no single
// snapshot would.

const (
	// maxTreeNodes bounds a tree (loads, compares and leaves together).
	// Per-path execution can double at every branch; a program past the
	// bound is not hook-sized and stays on closures.
	maxTreeNodes = 64
	// maxTreeWords bounds the context slots a tree may read: the size of
	// the per-run word cache. The widest layout has 27 fields.
	maxTreeWords = 32
)

// symKind is what a register or stack slot holds during symbolic
// execution. Only the first three are values a tree node may carry.
type symKind uint8

const (
	symNone     symKind = iota // never written
	symConst                   // c
	symCtx                     // context word slot
	symALU                     // context word slot ⋄op c
	symCtxPtr                  // R1 + c bytes
	symStackPtr                // RFP + c bytes (c ≤ 0)
)

type sym struct {
	c    uint64
	op   policy.Op
	slot uint8
	kind symKind
}

func (s sym) isValue() bool { return s.kind >= symConst && s.kind <= symALU }

// eval is s's value over the words loaded so far.
func (s *sym) eval(w *[maxTreeWords]uint64) uint64 {
	switch s.kind {
	case symConst:
		return s.c
	case symCtx:
		return w[s.slot%maxTreeWords]
	}
	return aluConst(s.op, w[s.slot%maxTreeWords], s.c)
}

type nodeKind uint8

const (
	nodeLeaf nodeKind = iota
	nodeLoad
	nodeBranch
)

// treeNode is one step of a tree. A load reads context word slot into the
// run's cache and continues at next; failing, it faults at pc having
// counted insns. A branch takes next when "a op b" holds, alt otherwise.
// A leaf returns a, its path having counted insns.
type treeNode struct {
	a, b  sym
	insns int32
	pc    int16
	next  int16
	alt   int16
	op    policy.Op
	kind  nodeKind
	slot  uint8
}

// Tree is a program lowered to a decision tree; node 0 is the root. It
// holds no program: every program with the same bytecode can share it, and
// RunTree is told which one is running.
type Tree struct {
	nodes []treeNode
}

// String is how Choice.Lowering reports the tree.
func (t *Tree) String() string {
	var compares, leaves int
	for i := range t.nodes {
		switch t.nodes[i].kind {
		case nodeBranch:
			compares++
		case nodeLeaf:
			leaves++
		}
	}
	return fmt.Sprintf("tree (%d compares, %d leaves)", compares, leaves)
}

// treeStop is why LowerTree gave up: the first pc outside the grammar.
type treeStop struct {
	pc  int
	why string
}

func (e *treeStop) Error() string { return fmt.Sprintf("pc %d: %s", e.pc, e.why) }

func (e *treeStop) Unwrap() error { return ErrUnsupported }

// pathState is the symbolic machine state along one path.
type pathState struct {
	regs   [policy.NumRegs]sym
	stack  [policy.StackSize / 8]sym // by (offset+StackSize)/8; symNone: not written
	loaded uint32                    // context slots already in the run's cache
}

type treeBuilder struct {
	insns []policy.Instruction
	nodes []treeNode // room for maxTreeNodes: add never reallocates
}

// treeBuilders recycles the builders' node buffers. A policy lifecycle's
// memory is always fresh (nothing on the lock path feeds the collector),
// so what LowerTree allocates per call is what the tree keeps.
var treeBuilders = sync.Pool{New: func() any {
	return &treeBuilder{nodes: make([]treeNode, 0, maxTreeNodes)}
}}

// LowerTree lowers a verified program to a decision tree, or reports the
// first pc that is not in the tree grammar (an error wrapping
// ErrUnsupported — a tier decision, never a correctness problem).
func LowerTree(p *policy.Program) (*Tree, error) {
	if !p.Verified() {
		return nil, policy.ErrNotVerified
	}
	b := treeBuilders.Get().(*treeBuilder)
	b.insns, b.nodes = p.Insns, b.nodes[:0]
	defer func() {
		b.insns = nil
		treeBuilders.Put(b)
	}()
	var st pathState
	st.regs[policy.R1] = sym{kind: symCtxPtr}
	st.regs[policy.RFP] = sym{kind: symStackPtr}
	if _, err := b.walk(0, &st, 0); err != nil {
		return nil, err
	}
	return &Tree{nodes: slices.Clone(b.nodes)}, nil
}

func (b *treeBuilder) add(pc int, n treeNode) (int16, error) {
	if len(b.nodes) == maxTreeNodes {
		return 0, &treeStop{pc, fmt.Sprintf("more than %d tree nodes", maxTreeNodes)}
	}
	b.nodes = append(b.nodes, n)
	return int16(len(b.nodes) - 1), nil
}

// walk executes one path from pc with count instructions already
// executed, appending its nodes, and returns the index of the first. st
// is the caller's to reuse: walk works on a copy.
func (b *treeBuilder) walk(pc int, entry *pathState, count int32) (int16, error) {
	st := *entry
	first, last := int16(-1), int16(-1)
	link := func(pc int, n treeNode) (int16, error) {
		i, err := b.add(pc, n)
		if err != nil {
			return 0, err
		}
		if last >= 0 {
			b.nodes[last].next = i
		} else {
			first = i
		}
		last = i
		return i, nil
	}
	stop := func(pc int, format string, args ...any) (int16, error) {
		return 0, &treeStop{pc, fmt.Sprintf(format, args...)}
	}

	// The VM counts every instruction it completes: all but the one that
	// exits or faults. count follows that rule.
	for ; pc < len(b.insns); count++ {
		in := b.insns[pc]
		op := in.Op
		d, s := int(in.Dst), int(in.Src)
		if d >= policy.NumRegs || s >= policy.NumRegs {
			return stop(pc, "register out of range")
		}

		switch {
		case op == policy.OpExit:
			if !st.regs[policy.R0].isValue() {
				return stop(pc, "exit with non-scalar R0")
			}
			if _, err := link(pc, treeNode{kind: nodeLeaf, a: st.regs[policy.R0], insns: count}); err != nil {
				return 0, err
			}
			return first, nil

		case op == policy.OpCall:
			return stop(pc, "calls %s", policy.HelperID(in.Imm))

		case op == policy.OpLoadMapPtr:
			return stop(pc, "references a map")

		case op == policy.OpJa || op.IsCondJump():
			tgt := pc + 1 + int(in.Off)
			if tgt <= pc || tgt >= len(b.insns) {
				return stop(pc, "jump target %d out of range", tgt)
			}
			if op == policy.OpJa {
				pc = tgt
				continue
			}
			x, y := st.regs[d], sym{kind: symConst, c: uint64(in.Imm)}
			if op.UsesSrcReg() {
				y = st.regs[s]
			}
			if !x.isValue() || !y.isValue() {
				return stop(pc, "branch on a non-scalar register")
			}
			if x.kind == symConst && y.kind == symConst {
				if condTakenJit(op, x.c, y.c) {
					pc = tgt
				} else {
					pc++
				}
				continue
			}
			i, err := link(pc, treeNode{kind: nodeBranch, op: op, a: x, b: y})
			if err != nil {
				return 0, err
			}
			taken, err := b.walk(tgt, &st, count+1)
			if err != nil {
				return 0, err
			}
			fall, err := b.walk(pc+1, &st, count+1)
			if err != nil {
				return 0, err
			}
			b.nodes[i].next, b.nodes[i].alt = taken, fall
			return first, nil

		case op.IsLoad():
			ptr := st.regs[s]
			off := int64(ptr.c) + int64(in.Off)
			switch ptr.kind {
			case symCtxPtr:
				// Any access size reads the whole word, as in the VM.
				if off < 0 || off%8 != 0 || off/8 >= maxTreeWords {
					return stop(pc, "ctx load at offset %d", off)
				}
				slot := uint8(off / 8)
				if st.loaded&(1<<slot) == 0 {
					st.loaded |= 1 << slot
					if _, err := link(pc, treeNode{kind: nodeLoad, slot: slot, pc: int16(pc), insns: count}); err != nil {
						return 0, err
					}
				}
				st.regs[d] = sym{kind: symCtx, slot: slot}
			case symStackPtr:
				if op != policy.OpLdxDW || off%8 != 0 || off < -policy.StackSize || off >= 0 {
					return stop(pc, "stack load narrower than or not aligned to a word")
				}
				v := st.stack[(off+policy.StackSize)/8]
				if v.kind == symNone {
					return stop(pc, "stack load of a slot not written as a word")
				}
				st.regs[d] = v
			default:
				return stop(pc, "load through a non-pointer register")
			}

		case op.IsStore():
			ptr := st.regs[d]
			off := int64(ptr.c) + int64(in.Off)
			if ptr.kind != symStackPtr {
				return stop(pc, "store outside the stack")
			}
			if (op != policy.OpStxDW && op != policy.OpStDW) || off%8 != 0 || off < -policy.StackSize || off >= 0 {
				return stop(pc, "stack store narrower than or not aligned to a word")
			}
			v := sym{kind: symConst, c: uint64(in.Imm)}
			if op.UsesSrcReg() {
				v = st.regs[s]
			}
			if !v.isValue() {
				return stop(pc, "store of a non-scalar register")
			}
			st.stack[(off+policy.StackSize)/8] = v

		case op.IsALU():
			v, why := symALUOp(op, st.regs[d], st.regs[s], uint64(in.Imm))
			if why != "" {
				return stop(pc, "%s", why)
			}
			st.regs[d] = v

		default:
			return stop(pc, "unhandled opcode %s", op)
		}
		pc++
	}
	return stop(len(b.insns)-1, "falls off the end")
}

// symALUOp is one ALU instruction over symbolic operands: dst ⋄ (src or
// imm). It returns the result, or why the result is not in the grammar.
func symALUOp(op policy.Op, dst, src sym, imm uint64) (sym, string) {
	if op == policy.OpMovImm {
		return sym{kind: symConst, c: imm}, ""
	}
	y := sym{kind: symConst, c: imm}
	if op.UsesSrcReg() {
		y = src
	}
	if y.kind == symNone {
		return sym{}, "alu against an unwritten register"
	}
	if op == policy.OpMovReg {
		return y, ""
	}
	if !y.isValue() {
		return sym{}, "pointer as an alu operand"
	}
	switch dst.kind {
	case symNone:
		return sym{}, "alu on an unwritten register"
	case symCtxPtr, symStackPtr:
		// The VM moves a pointer by the operand for every non-mov ALU op,
		// negated only for sub.
		if y.kind != symConst {
			return sym{}, "pointer moved by a non-constant"
		}
		delta := int64(y.c)
		if op == policy.OpSubImm || op == policy.OpSubReg {
			delta = -delta
		}
		dst.c = uint64(int64(dst.c) + delta)
		return dst, ""
	}
	switch {
	case dst.kind == symConst && y.kind == symConst:
		return sym{kind: symConst, c: aluConst(op, dst.c, y.c)}, ""
	case dst.kind == symCtx && y.kind == symConst:
		return sym{kind: symALU, slot: dst.slot, op: op, c: y.c}, ""
	case dst.kind == symConst && y.kind == symCtx:
		switch op {
		case policy.OpAddReg, policy.OpMulReg, policy.OpAndReg, policy.OpOrReg, policy.OpXorReg:
			return sym{kind: symALU, slot: y.slot, op: op, c: dst.c}, ""
		}
		return sym{}, "constant on the left of a non-commutative operation"
	case dst.kind == symALU || y.kind == symALU:
		return sym{}, "second operation on a derived value"
	}
	return sym{}, "operation on two context words"
}

// RunTree evaluates t as a run of p, a program t was lowered from, reading
// context word i as src[i](arg). It is observationally a JIT run of p: the
// same ExecStats deltas (Runs, JITRuns, Insns, Faults) on p's counters, the
// same injected trap, and a word src does not cover faults as the VM's
// out-of-bounds context load would. It allocates nothing and needs no
// context, machine or scratch.
func RunTree[T any](t *Tree, p *policy.Program, src []func(T) uint64, arg T) (uint64, error) {
	// A run starts as Compile's wrapper starts one: counted, then the
	// injected-trap site the VM also consults at this point.
	st := p.Stats()
	st.Runs.Add(1)
	st.JITRuns.Add(1)
	if faultinject.PolicyTrap.Enabled() {
		if flt, ok := faultinject.PolicyTrap.Fire(); ok {
			st.Faults.Add(1)
			return 0, &policy.RuntimeError{Name: p.Name, PC: -1,
				Msg: fmt.Sprintf("injected trap: %v", flt.Err)}
		}
	}
	var w [maxTreeWords]uint64
	for i := int16(0); ; {
		n := &t.nodes[i]
		switch n.kind {
		case nodeLoad:
			if int(n.slot) >= len(src) || src[n.slot] == nil {
				st.Insns.Add(int64(n.insns))
				st.Faults.Add(1)
				return 0, &policy.RuntimeError{Name: p.Name, PC: int(n.pc), Msg: "ctx load out of bounds"}
			}
			w[n.slot%maxTreeWords] = src[n.slot](arg)
			i = n.next
		case nodeBranch:
			if condTakenJit(n.op, n.a.eval(&w), n.b.eval(&w)) {
				i = n.next
			} else {
				i = n.alt
			}
		default:
			st.Insns.Add(int64(n.insns))
			return n.a.eval(&w), nil
		}
	}
}
