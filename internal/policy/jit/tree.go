package jit

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/faultinject"
	"concord/internal/policy"
)

// The decision-tree lowering. Every shipped policy compares a few context
// words with each other, with constants, with a word looked up in a map or
// with a windowed lock statistic, perhaps bumps a counter, records a value
// or moves the lock's optimistic tier, and returns a constant. LowerTree
// proves that shape by executing every path symbolically and keeps the
// result as a flat tree whose inputs are context words, map lookups and
// statistics reads, so the caller can evaluate it over wherever those words
// already live (RunTree) and never build a context at all.
//
// Grammar. A value is a constant, a cached word, or ONE ALU operation of a
// cached word with a constant (word on the left, or either side of a
// commutative operation); constant⋄constant folds. A cached word is a
// context word, a word of a map value or a statistic read. Registers carry
// values and pointers; pointers into the context, the stack or a map value
// move by constants only. The stack keeps the stores made to it, of any
// width at any offset: a word load (8 bytes) must find one value stored as
// exactly that word (the DSL spills through the stack), and a map key or
// value is rebuilt from the stores that cover it, in program order (a
// 4-byte key is one narrow store). Every conditional jump compares two
// values — one whose operands are both constant folds — or is a lookup
// result's null check (== 0 or != 0), and every exit returns a value.
//
// Five helpers are call nodes, so a tree still holds no program, no map
// and no environment:
//   - map_lookup is a source. It records whether the key is present and
//     copies the value words the tree loads (8-byte loads at constant
//     offsets through the result) into the word cache.
//   - lock_stats_read(k), k a value, is a source: the field is read into
//     a cache slot of its own, once per call, as the VM reads it.
//   - map_update and map_add (on a per-CPU map too) are effects. They run
//     in program order with the VM's semantics: an update into a full map
//     or an add with no slot fails and the program goes on; the result
//     (0 or −1) is the one thing the program may not use.
//   - occ_set(v), v a value, is an effect in program order too, and its
//     result may not be used either.
//
// A map node names its built-in map by index in p.Maps; lock_stats_read
// and occ_set go to the environment RunTree is handed. Anything else stops
// the lowering at that pc, and the program runs on the interpreter:
// another helper, a custom Map implementation, the use of an effect's
// result, a load through a lookup result after an effect on the same map
// on that path, a narrow or partial load, two words in one ALU operation, a
// second operation on a derived value, more than maxTreeNodes nodes, or
// more words than the run's cache holds.
//
// Equivalence with the VM is checked by DiffHarness: identical R0,
// identical fault (a context word beyond the words supplied faults at the
// pc of its load, with the instruction count up to it), identical
// ExecStats deltas (instructions, helper calls and map ops are counted per
// path), identical map contents and occ_set requests. Each word is read at
// most once per run — a context word at its first load on the path taken,
// a map value's words at its lookup, a statistic at its call — so a live
// source that changes mid-run cannot produce a decision no single snapshot
// would. Copying at the lookup reads what the VM's later load would: no
// effect on that map can come between them.

const (
	// maxTreeNodes bounds a tree (loads, compares, calls and leaves
	// together). Per-path execution can double at every branch; a program
	// past the bound is not hook-sized and stays on the interpreter.
	maxTreeNodes = 64
	// maxTreeWords bounds the words a run caches: context slots from the
	// bottom, a lookup's presence and value words and a statistic read from
	// the top. The widest layout has 27 fields.
	maxTreeWords = 32
	// maxStackStores bounds the stack stores live on one path.
	maxStackStores = 32
	// maxTreeValue bounds, in bytes, a map value a tree reads or writes.
	maxTreeValue = 64
)

// symKind is what a register or stack slot holds during symbolic
// execution. Only the first three are values a tree node may carry.
type symKind uint8

const (
	symNone         symKind = iota // never written
	symConst                       // c
	symWord                        // cached word slot
	symALU                         // cached word slot ⋄op c
	symCtxPtr                      // R1 + c bytes
	symStackPtr                    // RFP + c bytes (c ≤ 0)
	symMapPtr                      // map c of p.Maps
	symMapValOrNull                // call slot's lookup result, before its null check
	symMapVal                      // call slot's lookup result + c bytes
	symResult                      // the result of effect helper c
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
	case symWord:
		return w[s.slot%maxTreeWords]
	}
	return policy.ALU(s.op, w[s.slot%maxTreeWords], s.c)
}

// usesResult names the effect whose result one of ss is, or is "".
func usesResult(ss ...sym) string {
	for _, s := range ss {
		if s.kind == symResult {
			return policy.HelperID(s.c).String()
		}
	}
	return ""
}

type nodeKind uint8

const (
	nodeLeaf nodeKind = iota
	nodeLoad
	nodeBranch
	nodeCall
)

// treeNode is one step of a tree. A load reads context word slot into the
// run's cache and continues at next; failing, it faults at pc having
// counted insns. A call node makes call slot and continues at next; it can
// fault only where the VM's helper prologue can. A branch takes next when
// "a op b" holds, alt otherwise. A leaf returns a, its path having counted
// insns. helpers and mapOps are the helper calls, and the map calls among
// them, on the path before the node.
type treeNode struct {
	a, b    sym
	insns   int32
	pc      int16
	next    int16
	alt     int16
	op      policy.Op
	kind    nodeKind
	slot    uint8
	helpers uint8
	mapOps  uint8
}

// helperCall is what a call node does: helper, on map m of the program for
// a map helper, with the key rebuilt from stores[lo:mid] and map_update's
// value from stores[mid:hi].
type helperCall struct {
	helper      policy.HelperID
	m           uint8
	keyLen      uint8
	valLen      uint8
	lo, mid, hi uint16
	arg         sym   // map_add's addend, lock_stats_read's field, occ_set's request
	out         uint8 // lookup: cache slot set to 1 when the key is found, 0 otherwise; lock_stats_read: the slot read into
	words       uint8 // lookup: the value words the tree loads, by bit
	wslot       [maxTreeValue / 8]uint8
}

// byteStore is one stack store's share of a map key or value: n bytes of
// v, from byte skip of v on, at byte at of the key or value.
type byteStore struct {
	v           sym
	at, skip, n uint8
}

func (s *byteStore) put(buf []byte, w *[maxTreeWords]uint64) {
	x := s.v.eval(w) >> (8 * (s.skip % 8))
	if s.n == 8 {
		binary.LittleEndian.PutUint64(buf[s.at:], x)
		return
	}
	for i := range s.n {
		buf[s.at+i] = byte(x >> (8 * i))
	}
}

// Tree is a program lowered to a decision tree; node 0 is the root. It
// holds no program and no map: every program with the same bytecode and
// maps of the same kinds and sizes can share it, and RunTree is told which
// one is running.
type Tree struct {
	nodes  []treeNode
	calls  []helperCall
	stores []byteStore
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
	var maps, stats, occ int
	for i := range t.calls {
		switch t.calls[i].helper {
		case policy.HelperLockStats:
			stats++
		case policy.HelperOCCSet:
			occ++
		default:
			maps++
		}
	}
	s := fmt.Sprintf("tree (%d compares, %d leaves", compares, leaves)
	if maps > 0 {
		s += fmt.Sprintf(", %d map calls", maps)
	}
	if stats > 0 {
		s += fmt.Sprintf(", %d lock_stats_read", stats)
	}
	if occ > 0 {
		s += fmt.Sprintf(", %d occ_set", occ)
	}
	return s + ")"
}

// treeStop is why LowerTree gave up: the first pc outside the grammar.
type treeStop struct {
	pc  int
	why string
}

func (e *treeStop) Error() string { return fmt.Sprintf("pc %d: %s", e.pc, e.why) }

func (e *treeStop) Unwrap() error { return ErrUnsupported }

// stackStore is one store live on the stack: size bytes of v at off bytes
// from RFP.
type stackStore struct {
	v    sym
	off  int16
	size uint8
}

// pathState is the symbolic machine state along one path.
type pathState struct {
	regs    [policy.NumRegs]sym
	stack   [maxStackStores]stackStore // oldest first; none covered by a later one
	nstack  uint8
	helpers uint8  // helper calls made so far
	mapOps  uint8  // map calls among them
	loaded  uint32 // context slots already in the run's cache
	lookups uint64 // calls on this path that are lookups, by index
	stale   uint64 // lookups an effect on their map has followed
}

// store records size bytes of v at off, dropping the stores it covers. It
// reports false when the path has too many live stores.
func (st *pathState) store(off int16, size uint8, v sym) bool {
	n := 0
	for _, s := range st.stack[:st.nstack] {
		if s.off >= off && s.off+int16(s.size) <= off+int16(size) {
			continue
		}
		st.stack[n] = s
		n++
	}
	if n == maxStackStores {
		return false
	}
	st.stack[n] = stackStore{v: v, off: off, size: size}
	st.nstack = uint8(n + 1)
	return true
}

// word returns the value a word load at off reads, when the latest store
// to any of its bytes stored exactly that word.
func (st *pathState) word(off int16) (sym, bool) {
	for i := int(st.nstack) - 1; i >= 0; i-- {
		s := st.stack[i]
		if s.off < off+8 && off < s.off+int16(s.size) {
			return s.v, s.off == off && s.size == 8
		}
	}
	return sym{}, false
}

type treeBuilder struct {
	insns  []policy.Instruction
	maps   []policy.Map
	nodes  []treeNode   // room for maxTreeNodes: add never reallocates
	calls  []helperCall // likewise: a pointer into it stays valid
	stores []byteStore  // keys' and values' stores, by call
	top    int          // lowest cache slot a lookup or statistic read holds
	ctxTop int          // one past the highest context slot loaded
}

// treeBuilders recycles the builders' buffers. A policy lifecycle's
// memory is always fresh (nothing on the lock path feeds the collector),
// so what LowerTree allocates per call is what the tree keeps.
var treeBuilders = sync.Pool{New: func() any {
	return &treeBuilder{nodes: make([]treeNode, 0, maxTreeNodes), calls: make([]helperCall, 0, maxTreeNodes)}
}}

// LowerTree lowers a verified program to a decision tree, or reports the
// first pc that is not in the tree grammar (an error wrapping
// ErrUnsupported — a tier decision, never a correctness problem).
func LowerTree(p *policy.Program) (*Tree, error) {
	if !p.Verified() {
		return nil, policy.ErrNotVerified
	}
	b := treeBuilders.Get().(*treeBuilder)
	b.insns, b.maps = p.Insns, p.Maps
	b.nodes, b.calls, b.stores = b.nodes[:0], b.calls[:0], b.stores[:0]
	b.top, b.ctxTop = maxTreeWords, 0
	defer func() {
		b.insns, b.maps = nil, nil
		treeBuilders.Put(b)
	}()
	var st pathState
	st.regs[policy.R1] = sym{kind: symCtxPtr}
	st.regs[policy.RFP] = sym{kind: symStackPtr}
	if _, err := b.walk(0, &st, 0); err != nil {
		return nil, err
	}
	t := &Tree{nodes: slices.Clone(b.nodes)}
	if len(b.calls) > 0 {
		t.calls, t.stores = slices.Clone(b.calls), slices.Clone(b.stores)
	}
	return t, nil
}

func (b *treeBuilder) add(pc int, n treeNode) (int16, error) {
	if len(b.nodes) == maxTreeNodes {
		return 0, &treeStop{pc, fmt.Sprintf("more than %d tree nodes", maxTreeNodes)}
	}
	b.nodes = append(b.nodes, n)
	return int16(len(b.nodes) - 1), nil
}

// reserve takes a cache slot from the top for a lookup's word.
func (b *treeBuilder) reserve(pc int) (uint8, error) {
	if b.top-1 < b.ctxTop {
		return 0, &treeStop{pc, fmt.Sprintf("context and map words overflow the %d-word cache", maxTreeWords)}
	}
	b.top--
	return uint8(b.top), nil
}

// walk executes one path from pc with count instructions already
// executed, appending its nodes, and returns the index of the first. st
// is the caller's to reuse: walk works on a copy.
func (b *treeBuilder) walk(pc int, entry *pathState, count int32) (int16, error) {
	st := *entry
	first, last := int16(-1), int16(-1)
	link := func(pc int, n treeNode) (int16, error) {
		n.helpers, n.mapOps = st.helpers, st.mapOps
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
	// fork ends the path at the branch node i: taken continues at tgt, the
	// fall-through at pc+1, each from its own copy of the state.
	fork := func(i int16, tgt, pc int, taken, fall *pathState) (int16, error) {
		next, err := b.walk(tgt, taken, count+1)
		if err != nil {
			return 0, err
		}
		alt, err := b.walk(pc+1, fall, count+1)
		if err != nil {
			return 0, err
		}
		b.nodes[i].next, b.nodes[i].alt = next, alt
		return first, nil
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
			if h := usesResult(st.regs[policy.R0]); h != "" {
				return stop(pc, "uses the result of %s", h)
			}
			if !st.regs[policy.R0].isValue() {
				return stop(pc, "exit with non-scalar R0")
			}
			if _, err := link(pc, treeNode{kind: nodeLeaf, a: st.regs[policy.R0], insns: count}); err != nil {
				return 0, err
			}
			return first, nil

		case op == policy.OpCall:
			h := policy.HelperID(in.Imm)
			var n treeNode
			var err error
			switch h {
			case policy.HelperMapLookup, policy.HelperMapUpdate, policy.HelperMapAdd:
				n, err = b.mapCall(pc, h, &st)
			case policy.HelperLockStats, policy.HelperOCCSet:
				n, err = b.envCall(pc, h, &st)
			default:
				return stop(pc, "calls %s", h)
			}
			if err != nil {
				return 0, err
			}
			n.pc, n.insns = int16(pc), count
			if _, err := link(pc, n); err != nil {
				return 0, err
			}
			st.helpers++
			if b.calls[n.slot].isMapOp() {
				st.mapOps++
			}
			for r := policy.R1; r <= policy.R5; r++ {
				st.regs[r] = sym{}
			}

		case op == policy.OpLoadMapPtr:
			if in.Imm < 0 || in.Imm >= int64(len(b.maps)) {
				return stop(pc, "map %d out of range", in.Imm)
			}
			if !builtin(b.maps[in.Imm]) {
				return stop(pc, "map %q is not a built-in kind", b.maps[in.Imm].Name())
			}
			st.regs[d] = sym{kind: symMapPtr, c: uint64(in.Imm)}

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
			if x.kind == symMapValOrNull {
				// The null check: a branch on the lookup's presence word,
				// and the result refined on each edge as the VM does.
				if (op != policy.OpJeqImm && op != policy.OpJneImm) || in.Imm != 0 {
					return stop(pc, "lookup result compared other than with == 0 or != 0")
				}
				i, err := link(pc, treeNode{kind: nodeBranch, op: op,
					a: sym{kind: symWord, slot: b.calls[x.slot].out}, b: y})
				if err != nil {
					return 0, err
				}
				found, missed := sym{kind: symMapVal, slot: x.slot}, sym{kind: symConst}
				taken, fall := st, st
				taken.regs[d], fall.regs[d] = missed, found
				if op == policy.OpJneImm {
					taken.regs[d], fall.regs[d] = found, missed
				}
				return fork(i, tgt, pc, &taken, &fall)
			}
			if h := usesResult(x, y); h != "" {
				return stop(pc, "uses the result of %s", h)
			}
			if !x.isValue() || !y.isValue() {
				return stop(pc, "branch on a non-scalar register")
			}
			if x.kind == symConst && y.kind == symConst {
				if policy.CondTaken(op, x.c, y.c) {
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
			return fork(i, tgt, pc, &st, &st)

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
				if int(slot) >= b.top {
					return stop(pc, "context and map words overflow the %d-word cache", maxTreeWords)
				}
				b.ctxTop = max(b.ctxTop, int(slot)+1)
				if st.loaded&(1<<slot) == 0 {
					st.loaded |= 1 << slot
					if _, err := link(pc, treeNode{kind: nodeLoad, slot: slot, pc: int16(pc), insns: count}); err != nil {
						return 0, err
					}
				}
				st.regs[d] = sym{kind: symWord, slot: slot}
			case symStackPtr:
				if op != policy.OpLdxDW || off < -policy.StackSize || off+8 > 0 {
					return stop(pc, "stack load narrower than a word or out of bounds")
				}
				v, ok := st.word(int16(off))
				if !ok {
					return stop(pc, "stack load of a slot not written as a word")
				}
				st.regs[d] = v
			case symMapVal:
				c := &b.calls[ptr.slot]
				if op != policy.OpLdxDW || off < 0 || off%8 != 0 || off >= int64(b.maps[c.m].ValueSize()) {
					return stop(pc, "map value load at offset %d", off)
				}
				if st.stale&(1<<ptr.slot) != 0 {
					return stop(pc, "map value load after a write to %q", b.maps[c.m].Name())
				}
				k := off / 8
				if c.words&(1<<k) == 0 {
					slot, err := b.reserve(pc)
					if err != nil {
						return 0, err
					}
					c.words |= 1 << k
					c.wslot[k] = slot
				}
				st.regs[d] = sym{kind: symWord, slot: c.wslot[k]}
			default:
				return stop(pc, "load through a non-pointer register")
			}

		case op.IsStore():
			ptr := st.regs[d]
			off := int64(ptr.c) + int64(in.Off)
			size := int64(op.AccessSize())
			if ptr.kind != symStackPtr {
				return stop(pc, "store outside the stack")
			}
			if off < -policy.StackSize || off+size > 0 {
				return stop(pc, "stack store out of bounds")
			}
			v := sym{kind: symConst, c: uint64(in.Imm)}
			if op.UsesSrcReg() {
				v = st.regs[s]
			}
			if h := usesResult(v); h != "" {
				return stop(pc, "uses the result of %s", h)
			}
			if !v.isValue() {
				return stop(pc, "store of a non-scalar register")
			}
			if !st.store(int16(off), uint8(size), v) {
				return stop(pc, "more than %d live stack stores", maxStackStores)
			}

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

// builtin reports whether m is one of the map kinds a tree calls directly.
func builtin(m policy.Map) bool {
	switch m.(type) {
	case *policy.HashMap, *policy.ArrayMap:
		return true
	}
	return false
}

// mapCall lowers the map helper call h at pc on the path st: it records
// the call, sets R0 to what the call returns, and returns the call's node.
func (b *treeBuilder) mapCall(pc int, h policy.HelperID, st *pathState) (treeNode, error) {
	stop := func(format string, args ...any) (treeNode, error) {
		return treeNode{}, &treeStop{pc, fmt.Sprintf(format, args...)}
	}
	r1 := st.regs[policy.R1]
	if r1.kind != symMapPtr {
		return stop("%s without a map in R1", h)
	}
	if len(b.calls) == cap(b.calls) {
		return stop("more than %d tree nodes", maxTreeNodes)
	}
	m := b.maps[r1.c]
	ci := len(b.calls)
	c := helperCall{helper: h, m: uint8(r1.c), lo: uint16(len(b.stores))}
	// region appends the stores that build the n bytes ptr points at.
	region := func(ptr sym, n int, what string) (uint8, error) {
		off := int(int64(ptr.c))
		if ptr.kind != symStackPtr || off < -policy.StackSize || off+n > 0 {
			return 0, &treeStop{pc, fmt.Sprintf("%s %s not on the stack", h, what)}
		}
		if n > maxTreeValue {
			return 0, &treeStop{pc, fmt.Sprintf("%s %s wider than %d bytes", h, what, maxTreeValue)}
		}
		for _, s := range st.stack[:st.nstack] {
			lo, hi := max(int(s.off), off), min(int(s.off)+int(s.size), off+n)
			if lo < hi {
				b.stores = append(b.stores, byteStore{v: s.v,
					at: uint8(lo - off), skip: uint8(lo - int(s.off)), n: uint8(hi - lo)})
			}
		}
		return uint8(n), nil
	}
	var err error
	if c.keyLen, err = region(st.regs[policy.R2], m.KeySize(), "key"); err != nil {
		return treeNode{}, err
	}
	c.mid = uint16(len(b.stores))
	switch h {
	case policy.HelperMapLookup:
		if m.ValueSize() > maxTreeValue {
			return stop("%s in %q: value wider than %d bytes", h, m.Name(), maxTreeValue)
		}
		if c.out, err = b.reserve(pc); err != nil {
			return treeNode{}, err
		}
		st.lookups |= 1 << ci
		st.regs[policy.R0] = sym{kind: symMapValOrNull, slot: uint8(ci)}
	case policy.HelperMapUpdate:
		if c.valLen, err = region(st.regs[policy.R3], m.ValueSize(), "value"); err != nil {
			return treeNode{}, err
		}
	case policy.HelperMapAdd:
		if c.arg = st.regs[policy.R3]; !c.arg.isValue() {
			return stop("%s of a non-scalar register", h)
		}
	}
	c.hi = uint16(len(b.stores))
	if h != policy.HelperMapLookup {
		// An effect: a lookup of the same map made earlier on this path
		// may no longer read what the map holds.
		for j := range b.calls {
			if st.lookups&(1<<j) != 0 && b.calls[j].m == c.m {
				st.stale |= 1 << j
			}
		}
		st.regs[policy.R0] = sym{kind: symResult, c: uint64(h)}
	}
	b.calls = append(b.calls, c)
	return treeNode{kind: nodeCall, slot: uint8(ci)}, nil
}

// envCall lowers lock_stats_read or occ_set, h, at pc on the path st: the
// argument in R1 must be a value. A statistic read sets R0 to a word in a
// cache slot of its own; occ_set's result may not be used.
func (b *treeBuilder) envCall(pc int, h policy.HelperID, st *pathState) (treeNode, error) {
	stop := func(format string, args ...any) (treeNode, error) {
		return treeNode{}, &treeStop{pc, fmt.Sprintf(format, args...)}
	}
	c := helperCall{helper: h, arg: st.regs[policy.R1]}
	if u := usesResult(c.arg); u != "" {
		return stop("uses the result of %s", u)
	}
	if !c.arg.isValue() {
		return stop("%s of a non-scalar register", h)
	}
	if len(b.calls) == cap(b.calls) {
		return stop("more than %d tree nodes", maxTreeNodes)
	}
	st.regs[policy.R0] = sym{kind: symResult, c: uint64(h)}
	if h == policy.HelperLockStats {
		var err error
		if c.out, err = b.reserve(pc); err != nil {
			return treeNode{}, err
		}
		st.regs[policy.R0] = sym{kind: symWord, slot: c.out}
	}
	b.calls = append(b.calls, c)
	return treeNode{kind: nodeCall, slot: uint8(len(b.calls) - 1)}, nil
}

// isMapOp reports whether c is a map helper's call, which the VM counts as
// a map op as well as a helper call.
func (c *helperCall) isMapOp() bool {
	return c.helper >= policy.HelperMapLookup && c.helper <= policy.HelperMapAdd
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
	if h := usesResult(dst, y); h != "" {
		return sym{}, "uses the result of " + h
	}
	if !y.isValue() {
		return sym{}, "pointer as an alu operand"
	}
	switch dst.kind {
	case symNone:
		return sym{}, "alu on an unwritten register"
	case symCtxPtr, symStackPtr, symMapVal:
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
	case symMapPtr, symMapValOrNull:
		return sym{}, "alu on a map or unchecked lookup pointer"
	}
	switch {
	case dst.kind == symConst && y.kind == symConst:
		return sym{kind: symConst, c: policy.ALU(op, dst.c, y.c)}, ""
	case dst.kind == symWord && y.kind == symConst:
		return sym{kind: symALU, slot: dst.slot, op: op, c: y.c}, ""
	case dst.kind == symConst && y.kind == symWord:
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
// context word i as src[i](arg) and taking the CPU a map call runs on from
// cpu(arg), at the call, as the VM asks its Env. lock_stats_read and
// occ_set go to env as the VM's helpers go to its Env: through
// policy.LockStatReader and policy.OCCSetter, a statistic reading 0 and a
// request changing nothing where env implements neither. It is
// observationally a JIT run of p: the same ExecStats deltas (Runs, JITRuns,
// Insns, HelperCalls, MapOps, Faults) in p's Stats once it returns, the
// same injected traps, the same map contents and occ_set requests, and a
// word src does not cover faults as the VM's out-of-bounds context load
// would. The deltas go to the firing owner's cell of p (cells.For; nil:
// p's own counters). A run that a source, cpu or env panics out of counts
// nothing. It needs no context, machine or scratch, and allocates nothing
// once its owner has run p: every map a tree calls is a built-in kind, and
// none of them allocates.
func RunTree[T any](t *Tree, p *policy.Program, cells *policy.ExecCells, src []func(T) uint64, cpu func(T) int, env any, arg T) (uint64, error) {
	// A run starts at the injected-trap site the VM also consults first.
	// Its counts are added where it ends, all together.
	st := cells.For(p)
	if faultinject.PolicyTrap.Enabled() {
		if flt, ok := faultinject.PolicyTrap.Fire(); ok {
			st.Runs.Add(1)
			st.JITRuns.Add(1)
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
				tally(st, n, 0, 0)
				st.Faults.Add(1)
				return 0, &policy.RuntimeError{Name: p.Name, PC: int(n.pc), Msg: "ctx load out of bounds"}
			}
			w[n.slot%maxTreeWords] = src[n.slot](arg)
			i = n.next
		case nodeBranch:
			if policy.CondTaken(n.op, n.a.eval(&w), n.b.eval(&w)) {
				i = n.next
			} else {
				i = n.alt
			}
		case nodeCall:
			if msg, mapOp := call(t, n, p, &w, cpu, env, arg); msg != "" {
				tally(st, n, 1, mapOp)
				st.Faults.Add(1)
				return 0, &policy.RuntimeError{Name: p.Name, PC: int(n.pc), Msg: msg}
			}
			i = n.next
		default:
			tally(st, n, 0, 0)
			return n.a.eval(&w), nil
		}
	}
}

// tally counts a run that ends at n: the run, and the instructions, helper
// calls and map ops of its path, plus the helper call and map op a
// faulting call at n had counted.
func tally(st *policy.ExecStats, n *treeNode, helper, mapOp int64) {
	st.Runs.Add(1)
	st.JITRuns.Add(1)
	st.Insns.Add(int64(n.insns))
	if h := int64(n.helpers) + helper; h != 0 {
		st.HelperCalls.Add(h)
	}
	if m := int64(n.mapOps) + mapOp; m != 0 {
		st.MapOps.Add(m)
	}
}

// call makes call node n's call for a run of p, after the VM's helper
// prologue: the fault-injection sites in its order. A fault returns its
// message and whether the call had counted as a map op.
func call[T any](t *Tree, n *treeNode, p *policy.Program, w *[maxTreeWords]uint64, cpu func(T) int, env any, arg T) (string, int64) {
	c := &t.calls[n.slot]
	if faultinject.PolicyHelper.Enabled() {
		if flt, ok := faultinject.PolicyHelper.Fire(); ok {
			if flt.Delay > 0 {
				time.Sleep(flt.Delay)
			}
			return fmt.Sprintf("helper %s: %v", c.helper, flt.Err), 0
		}
	}
	switch c.helper {
	case policy.HelperLockStats:
		// The run's cache starts zeroed: without a reader the field reads 0.
		if r, ok := env.(policy.LockStatReader); ok {
			w[c.out%maxTreeWords] = r.LockStat(c.arg.eval(w))
		}
		return "", 0
	case policy.HelperOCCSet:
		if s, ok := env.(policy.OCCSetter); ok {
			s.OCCSet(c.arg.eval(w))
		}
		return "", 0
	}
	if faultinject.PolicyMapOp.Enabled() {
		if flt, ok := faultinject.PolicyMapOp.Fire(); ok {
			return fmt.Sprintf("map op %s: %v", c.helper, flt.Err), 1
		}
	}
	if int(c.m) >= len(p.Maps) {
		return fmt.Sprintf("%s: R1 is not a map", c.helper), 1
	}
	var kb [policy.MaxHashKeySize]byte
	for i := c.lo; i < c.mid; i++ {
		t.stores[i].put(kb[:], w)
	}
	m, key := p.Maps[c.m], kb[:c.keyLen]
	var ok bool
	switch c.helper {
	case policy.HelperMapLookup:
		// The run's cache starts zeroed: a miss leaves the presence word 0.
		var v []uint64
		if v, ok = lookupIn(m, key, cpu(arg)); v == nil {
			break
		}
		w[c.out%maxTreeWords] = 1
		for ks := c.words; ks != 0; ks &= ks - 1 {
			k := bits.TrailingZeros8(ks)
			w[c.wslot[k]%maxTreeWords] = atomic.LoadUint64(&v[k])
		}
	case policy.HelperMapAdd:
		var v []uint64
		if v, ok = lookupOrInitIn(m, key, cpu(arg)); v != nil {
			atomic.AddUint64(&v[0], c.arg.eval(w))
		}
	default:
		var vb [maxTreeValue]byte
		for i := c.mid; i < c.hi; i++ {
			t.stores[i].put(vb[:], w)
		}
		ok = updateIn(m, key, vb[:c.valLen], cpu(arg))
	}
	if !ok {
		return fmt.Sprintf("%s: map %q is not a built-in kind", c.helper, m.Name()), 1
	}
	return "", 0
}

// lookupIn, lookupOrInitIn and updateIn are the map helpers' calls on the
// built-in map types, each called directly: a key or value here is a slice
// of the caller's stack, and through the Map interface it would escape to
// the heap on every call. They report false for any other Map.

func lookupIn(m policy.Map, key []byte, cpu int) ([]uint64, bool) {
	switch m := m.(type) {
	case *policy.HashMap:
		return m.Lookup(key, cpu), true
	case *policy.ArrayMap:
		return m.Lookup(key, cpu), true
	}
	return nil, false
}

// lookupOrInitIn is map_add's find: insert-if-absent on the hash kinds,
// a plain lookup on the arrays, as the VM's helper probes for it.
func lookupOrInitIn(m policy.Map, key []byte, cpu int) ([]uint64, bool) {
	if m, ok := m.(*policy.HashMap); ok {
		return m.LookupOrInit(key, cpu), true
	}
	return lookupIn(m, key, cpu)
}

// updateIn ignores the update's error: map_update's −1, which a tree
// never reads.
func updateIn(m policy.Map, key, raw []byte, cpu int) bool {
	switch m := m.(type) {
	case *policy.HashMap:
		_ = m.UpdateRaw(key, raw, cpu)
	case *policy.ArrayMap:
		_ = m.UpdateRaw(key, raw, cpu)
	default:
		return false
	}
	return true
}
