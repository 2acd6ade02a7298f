package policy

import (
	"fmt"
	"sync"
)

// VerifyError describes why a program was rejected, pointing at the
// offending instruction and showing the surrounding disassembly.
type VerifyError struct {
	Name   string
	PC     int
	Insn   Instruction
	Msg    string
	Window []string // disassembly of pc-1..pc+1, offender marked
}

// Error implements error. The one-line diagnosis comes first (so
// substring matching on the reason keeps working); the disassembly
// window follows on its own lines.
func (e *VerifyError) Error() string {
	var head string
	if e.PC < 0 {
		head = fmt.Sprintf("verifier: program %q: %s", e.Name, e.Msg)
	} else {
		head = fmt.Sprintf("verifier: program %q: pc %d (%s): %s", e.Name, e.PC, e.Insn, e.Msg)
	}
	for _, line := range e.Window {
		head += "\n" + line
	}
	return head
}

// disasmWindow renders the instructions around pc — one before through
// one after — marking the offender, for inclusion in verifier rejects.
func disasmWindow(p *Program, pc int) []string {
	if pc < 0 || pc >= len(p.Insns) {
		return nil
	}
	lo, hi := pc-1, pc+1
	if lo < 0 {
		lo = 0
	}
	if hi >= len(p.Insns) {
		hi = len(p.Insns) - 1
	}
	var out []string
	for i := lo; i <= hi; i++ {
		marker := "   "
		if i == pc {
			marker = " → "
		}
		out = append(out, fmt.Sprintf("%s%3d: %s", marker, i, p.Insns[i]))
	}
	return out
}

// regType is the abstract type of a register during verification.
type regType uint8

const (
	tUninit regType = iota
	tScalar
	tPtrStack          // frame pointer + tracked offset
	tPtrCtx            // context pointer + tracked offset
	tConstMapPtr       // register holding a map reference
	tPtrMapValue       // non-null pointer into a map value
	tPtrMapValueOrNull // result of map_lookup before the null check
)

var regTypeNames = [...]string{
	tUninit: "uninit", tScalar: "scalar", tPtrStack: "stack_ptr",
	tPtrCtx: "ctx_ptr", tConstMapPtr: "map_ptr",
	tPtrMapValue: "map_value", tPtrMapValueOrNull: "map_value_or_null",
}

func (t regType) String() string { return regTypeNames[t] }

func (t regType) isPointer() bool { return t >= tPtrStack && t <= tPtrMapValue }

// regState is the abstract value of one register. A scalar lies in iv; a
// pointer's offset (stack: relative to FP; ctx/map value: bytes) is the
// constant iv holds, so offsets and ranges share the same two words.
type regState struct {
	iv     Interval
	typ    regType
	mapIdx uint8 // for map-related types; MaxMaps is 16
}

func scalar(iv Interval) regState { return regState{typ: tScalar, iv: iv} }

func pointer(t regType, mapIdx uint8, off int64) regState {
	return regState{typ: t, mapIdx: mapIdx, iv: Const(off)}
}

func (r regState) off() int64 { return r.iv.Lo }

// merge joins two register states at a control-flow join point.
func (r regState) merge(o regState) regState {
	switch {
	case r == o:
		return r
	case r.typ == tScalar && o.typ == tScalar:
		return scalar(r.iv.Join(o.iv))
	}
	// Different types, maps or offsets: a pointer whose offset depends on
	// the path taken cannot be bounds-checked statically; poison it.
	return regState{}
}

// stackMap tracks which stack bytes have been initialized.
type stackMap [StackSize / 8]uint8

func (s *stackMap) set(idx int)      { s[idx/8] |= 1 << (idx % 8) }
func (s *stackMap) get(idx int) bool { return s[idx/8]&(1<<(idx%8)) != 0 }

func (s *stackMap) intersect(o *stackMap) {
	for i := range s {
		s[i] &= o[i]
	}
}

// maxSlots bounds the 8-byte stack slots a State tracks an interval for;
// an 8-byte store past it leaves its slot untracked, reading top. The
// DSL compiler's programs use at most three (fp-8, fp-16 and fp-24).
const maxSlots = 8

// State is the verifier's abstract machine state at one program point:
// each register's type, and a scalar's interval or a pointer's offset;
// which stack bytes are initialized; and the intervals of up to maxSlots
// 8-byte stack slots. It is 480 bytes, and must stay within 512
// (TestStateSize): verifyStates' array of one State per instruction
// outlives a collection in the pool's victim cache, so it is live heap
// in every workload that loads a policy.
type State struct {
	regs    [NumRegs]regState
	stack   stackMap
	slotIv  [maxSlots]Interval
	slotOff [maxSlots]int16
	nslots  uint8
	live    bool
}

func (s *State) merge(o *State) {
	if !s.live {
		*s = *o
		return
	}
	for i := range s.regs {
		s.regs[i] = s.regs[i].merge(o.regs[i])
	}
	s.stack.intersect(&o.stack)
	n := 0
	for i := range int(s.nslots) {
		if j := o.slot(s.slotOff[i]); j >= 0 {
			s.slotOff[n], s.slotIv[n] = s.slotOff[i], s.slotIv[i].Join(o.slotIv[j])
			n++
		}
	}
	s.nslots = uint8(n)
}

// slot is the index of the tracked slot at fp+off, or -1.
func (s *State) slot(off int16) int {
	for i := range int(s.nslots) {
		if s.slotOff[i] == off {
			return i
		}
	}
	return -1
}

// store records a store of size bytes at fp+off whose value lies in iv.
// Every tracked slot the store overlaps, judged by byte range, is
// dropped; an 8-byte store then tracks its own slot.
func (s *State) store(off int16, size int, iv Interval) {
	n := 0
	for i := range int(s.nslots) {
		if o := s.slotOff[i]; int(o)+8 <= int(off) || int(off)+size <= int(o) {
			s.slotOff[n], s.slotIv[n] = o, s.slotIv[i]
			n++
		}
	}
	s.nslots = uint8(n)
	if size == 8 && n < maxSlots {
		s.slotOff[n], s.slotIv[n] = off, iv
		s.nslots++
	}
}

// Scalar returns r's interval, if r holds a scalar.
func (s *State) Scalar(r Reg) (Interval, bool) {
	return s.regs[r].iv, s.regs[r].typ == tScalar
}

// MapRef returns the index of the map r refers to, if r holds a map
// reference (the map argument of a map helper).
func (s *State) MapRef(r Reg) (int, bool) {
	return int(s.regs[r].mapIdx), s.regs[r].typ == tConstMapPtr
}

// MapValue returns the map and byte offset r points into, if r holds a
// pointer into a map value, null-checked or not.
func (s *State) MapValue(r Reg) (mapIdx int, off int64, ok bool) {
	rs := s.regs[r]
	return int(rs.mapIdx), rs.off(), rs.typ == tPtrMapValue || rs.typ == tPtrMapValueOrNull
}

// CtxOffset returns r's byte offset into the context, if r points there.
func (s *State) CtxOffset(r Reg) (int64, bool) {
	return s.regs[r].off(), s.regs[r].typ == tPtrCtx
}

// StackOffset returns r's offset from the frame pointer, if r points
// into the stack.
func (s *State) StackOffset(r Reg) (int64, bool) {
	return s.regs[r].off(), s.regs[r].typ == tPtrStack
}

// StackSlot returns the interval of the 8 bytes at fp+off: top unless an
// 8-byte store on every path wrote exactly there and nothing since
// overlapped it.
func (s *State) StackSlot(off int64) Interval {
	if off >= -StackSize && off < 0 {
		if i := s.slot(int16(off)); i >= 0 {
			return s.slotIv[i]
		}
	}
	return Top
}

// verifyStates recycles the walk's per-instruction State array, its one
// large allocation. A policy lifecycle verifies each program twice —
// once when it is compiled, once more when LoadPolicy admits it — and
// the lock path makes no garbage for the collector to hand that memory
// back out of, so without the pool every lifecycle pays for fresh pages.
// Each run clears the prefix it uses.
var verifyStates = sync.Pool{New: func() any { return new([]State) }}

// VerifyStats reports what the verifier proved about a program.
type VerifyStats struct {
	Insns        int
	MaxStackUsed int // deepest stack byte initialized (bytes below FP)
	HelperCalls  int
	MapRefs      int
}

// Verify statically checks a program. On success the program is marked
// verified and may be executed; on failure a *VerifyError explains the
// rejection.
//
// The proof obligations mirror the kernel eBPF verifier's, restricted to
// the forward-jump-only dialect:
//
//   - every jump lands inside the program, and only jumps forward, so the
//     program is loop-free and terminates within len(Insns) steps;
//   - every register is initialized before use, and R10 is never written;
//   - memory access is typed: stack access is bounds-checked against the
//     512-byte frame and reads require prior initialization; context
//     access must hit an exact field of the program kind's layout and is
//     read-only; map-value access requires a null check after map_lookup
//     and stays inside the value, 8-byte aligned;
//   - pointer arithmetic adds or subtracts a scalar the walk proves
//     constant: its interval holds one value;
//   - helper calls are restricted to the kind's whitelist with typed
//     arguments (map pointers, initialized stack buffers of the map's key
//     or value size, scalars);
//   - the program ends by Exit with R0 initialized on every path.
func Verify(p *Program) (VerifyStats, error) { return Walk(p, nil) }

// Walk is Verify's one abstract interpretation of p, handing visit, when
// it is not nil, the final State of every live pc in pc order, before
// the instruction at pc runs. Jumps only go forward, so a pc's State is
// complete when the walk reaches it. visit must neither keep the State
// nor rely on having seen every pc unless Walk returns no error.
func Walk(p *Program, visit func(pc int, st *State)) (VerifyStats, error) {
	var stats VerifyStats
	fail := func(pc int, format string, args ...any) (VerifyStats, error) {
		var in Instruction
		if pc >= 0 && pc < len(p.Insns) {
			in = p.Insns[pc]
		}
		return stats, &VerifyError{
			Name: p.Name, PC: pc, Insn: in,
			Msg:    fmt.Sprintf(format, args...),
			Window: disasmWindow(p, pc),
		}
	}

	if !p.Kind.Valid() {
		return fail(-1, "invalid program kind %d", int(p.Kind))
	}
	n := len(p.Insns)
	if n == 0 {
		return fail(-1, "empty program")
	}
	if n > MaxInsns {
		return fail(-1, "program too long: %d > %d instructions", n, MaxInsns)
	}
	if len(p.Maps) > MaxMaps {
		return fail(-1, "too many maps: %d > %d", len(p.Maps), MaxMaps)
	}
	stats.Insns = n
	stats.MapRefs = len(p.Maps)
	layout := LayoutFor(p.Kind)

	buf := verifyStates.Get().(*[]State)
	defer verifyStates.Put(buf)
	if cap(*buf) < n {
		*buf = make([]State, n)
	}
	states := (*buf)[:n]
	clear(states)
	entry := &states[0]
	entry.live = true
	entry.regs[R1] = pointer(tPtrCtx, 0, 0)
	entry.regs[RFP] = pointer(tPtrStack, 0, 0)

	// propagate merges st into states[to].
	propagate := func(pc int, st *State, to int) error {
		if to >= n {
			return &VerifyError{
				Name: p.Name, PC: pc, Insn: p.Insns[pc],
				Msg:    "control flow falls off the end of the program",
				Window: disasmWindow(p, pc),
			}
		}
		states[to].merge(st)
		return nil
	}

	// checkStackRange validates [base+off, base+off+size) is a legal
	// stack region; init=true additionally requires every byte be
	// initialized; mark=true marks the bytes initialized.
	checkStackRange := func(st *State, ptr regState, off int64, size int, init, mark bool) string {
		lo := ptr.off() + off
		hi := lo + int64(size)
		if lo < -StackSize || hi > 0 {
			return fmt.Sprintf("stack access [%d,%d) outside frame [-%d,0)", lo, hi, StackSize)
		}
		for b := lo; b < hi; b++ {
			idx := int(b + StackSize)
			if init && !st.stack.get(idx) {
				return fmt.Sprintf("read of uninitialized stack byte at fp%+d", b)
			}
			if mark {
				st.stack.set(idx)
			}
		}
		if used := int(-lo); used > stats.MaxStackUsed {
			stats.MaxStackUsed = used
		}
		return ""
	}

	for pc := 0; pc < n; pc++ {
		st := states[pc] // copy: we mutate our copy, then propagate
		if !st.live {
			continue
		}
		in := p.Insns[pc]
		if !in.Op.Valid() {
			return fail(pc, "invalid opcode")
		}
		if !in.Dst.Valid() || !in.Src.Valid() {
			return fail(pc, "invalid register")
		}
		if visit != nil {
			visit(pc, &states[pc])
		}

		readReg := func(r Reg) (regState, string) {
			rs := st.regs[r]
			if rs.typ == tUninit {
				return rs, fmt.Sprintf("read of uninitialized register %s", r)
			}
			return rs, ""
		}
		// src is the second operand: Src, or Imm as a constant scalar.
		src := func() (regState, string) {
			if in.Op.UsesSrcReg() {
				return readReg(in.Src)
			}
			return scalar(Const(in.Imm)), ""
		}

		switch {
		case in.Op == OpExit:
			r0 := st.regs[R0]
			if r0.typ != tScalar {
				return fail(pc, "exit with R0 of type %s (need scalar return value)", r0.typ)
			}
			continue // no successors

		case in.Op == OpCall:
			h := HelperID(in.Imm)
			spec, ok := helperSpecs[h]
			if !ok {
				return fail(pc, "unknown helper %d", in.Imm)
			}
			if !helperAllowed(h, p.Kind) {
				return fail(pc, "helper %s not allowed in %s programs", spec.name, p.Kind)
			}
			stats.HelperCalls++
			// Type-check arguments R1..R#.
			var argMap Map
			var argMapIdx uint8
			for i, ak := range spec.args {
				reg := Reg(R1 + Reg(i))
				rs, msg := readReg(reg)
				if msg != "" {
					return fail(pc, "helper %s arg%d: %s", spec.name, i+1, msg)
				}
				switch ak {
				case argScalar:
					if rs.typ != tScalar {
						return fail(pc, "helper %s arg%d: want scalar, have %s", spec.name, i+1, rs.typ)
					}
				case argConstMapPtr:
					if rs.typ != tConstMapPtr {
						return fail(pc, "helper %s arg%d: want map pointer, have %s", spec.name, i+1, rs.typ)
					}
					argMapIdx = rs.mapIdx
					argMap = p.Maps[rs.mapIdx]
				case argStackKey, argStackValue:
					if rs.typ != tPtrStack {
						return fail(pc, "helper %s arg%d: want stack pointer, have %s", spec.name, i+1, rs.typ)
					}
					if argMap == nil {
						return fail(pc, "helper %s arg%d: no map argument precedes buffer", spec.name, i+1)
					}
					size := argMap.KeySize()
					if ak == argStackValue {
						size = argMap.ValueSize()
					}
					if msg := checkStackRange(&st, rs, 0, size, true, false); msg != "" {
						return fail(pc, "helper %s arg%d: %s", spec.name, i+1, msg)
					}
				}
			}
			// Clobber caller-saved registers; set R0.
			for r := R1; r <= R5; r++ {
				st.regs[r] = regState{}
			}
			st.regs[R0] = helperReturn(h, argMapIdx)
			if err := propagate(pc, &st, pc+1); err != nil {
				return stats, err
			}

		case in.Op == OpLoadMapPtr:
			if in.Imm < 0 || int(in.Imm) >= len(p.Maps) {
				return fail(pc, "map index %d out of range (program has %d maps)", in.Imm, len(p.Maps))
			}
			if in.Dst == RFP {
				return fail(pc, "write to frame pointer")
			}
			st.regs[in.Dst] = pointer(tConstMapPtr, uint8(in.Imm), 0)
			if err := propagate(pc, &st, pc+1); err != nil {
				return stats, err
			}

		case in.Op == OpJa:
			if in.Off < 0 {
				return fail(pc, "backward jump (offset %d); loops must be unrolled", in.Off)
			}
			if err := propagate(pc, &st, pc+1+int(in.Off)); err != nil {
				return stats, err
			}

		case in.Op.IsCondJump():
			if in.Off < 0 {
				return fail(pc, "backward jump (offset %d); loops must be unrolled", in.Off)
			}
			dst, msg := readReg(in.Dst)
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			srcV, msg := src()
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			// The only pointer comparison allowed is the null check of a
			// maybe-null map value against immediate 0.
			nullCheck := dst.typ == tPtrMapValueOrNull &&
				!in.Op.UsesSrcReg() && in.Imm == 0 &&
				(in.Op == OpJeqImm || in.Op == OpJneImm)
			if dst.typ != tScalar && !nullCheck {
				return fail(pc, "conditional jump on %s operand", dst.typ)
			}
			if srcV.typ != tScalar {
				return fail(pc, "conditional jump against %s operand", srcV.typ)
			}
			taken, fall := st, st
			refineCond(in, dst, &taken, &fall)
			if err := propagate(pc, &taken, pc+1+int(in.Off)); err != nil {
				return stats, err
			}
			if err := propagate(pc, &fall, pc+1); err != nil {
				return stats, err
			}

		case in.Op.IsLoad():
			ptr, msg := readReg(in.Src)
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			if in.Dst == RFP {
				return fail(pc, "write to frame pointer")
			}
			size := in.Op.AccessSize()
			off := ptr.off() + int64(in.Off)
			loaded := Top
			switch ptr.typ {
			case tPtrStack:
				if msg := checkStackRange(&st, ptr, int64(in.Off), size, true, false); msg != "" {
					return fail(pc, "%s", msg)
				}
				if size == 8 {
					loaded = st.StackSlot(off)
				}
			case tPtrCtx:
				if _, ok := layout.FieldAt(int(off)); !ok || size != 8 {
					return fail(pc, "ctx load at offset %d size %d does not match a %s field", off, size, p.Kind)
				}
			case tPtrMapValue:
				vs := int64(p.Maps[ptr.mapIdx].ValueSize())
				if size != 8 || off%8 != 0 || off < 0 || off+8 > vs {
					return fail(pc, "map value load at offset %d size %d (value size %d; must be aligned 8-byte access)", off, size, vs)
				}
			case tPtrMapValueOrNull:
				return fail(pc, "map value access before null check")
			default:
				return fail(pc, "load through non-pointer (%s)", ptr.typ)
			}
			st.regs[in.Dst] = scalar(loaded)
			if err := propagate(pc, &st, pc+1); err != nil {
				return stats, err
			}

		case in.Op.IsStore():
			ptr, msg := readReg(in.Dst)
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			size := in.Op.AccessSize()
			val, msg := src()
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			if val.typ != tScalar {
				// Pointer spilling is not supported in this dialect;
				// policies keep pointers in registers.
				return fail(pc, "store of %s value (only scalars may be stored)", val.typ)
			}
			off := ptr.off() + int64(in.Off)
			switch ptr.typ {
			case tPtrStack:
				if msg := checkStackRange(&st, ptr, int64(in.Off), size, false, true); msg != "" {
					return fail(pc, "%s", msg)
				}
				st.store(int16(off), size, val.iv)
			case tPtrCtx:
				return fail(pc, "context is read-only; decisions are returned, not written (mutual-exclusion safety)")
			case tPtrMapValue:
				vs := int64(p.Maps[ptr.mapIdx].ValueSize())
				if size != 8 || off%8 != 0 || off < 0 || off+8 > vs {
					return fail(pc, "map value store at offset %d size %d (value size %d; must be aligned 8-byte access)", off, size, vs)
				}
			case tPtrMapValueOrNull:
				return fail(pc, "map value access before null check")
			default:
				return fail(pc, "store through non-pointer (%s)", ptr.typ)
			}
			if err := propagate(pc, &st, pc+1); err != nil {
				return stats, err
			}

		case in.Op.IsALU():
			if in.Dst == RFP {
				return fail(pc, "write to frame pointer")
			}
			srcV, msg := src()
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			switch in.Op {
			case OpMovImm, OpMovReg:
				st.regs[in.Dst] = srcV
			default:
				dst, msg := readReg(in.Dst)
				if msg != "" {
					return fail(pc, "%s", msg)
				}
				ns, errMsg := aluResult(in.Op, dst, srcV)
				if errMsg != "" {
					return fail(pc, "%s", errMsg)
				}
				st.regs[in.Dst] = ns
			}
			if err := propagate(pc, &st, pc+1); err != nil {
				return stats, err
			}

		default:
			return fail(pc, "unhandled opcode %s", in.Op)
		}
	}

	// Every live instruction was checked; ensure at least one Exit is
	// reachable (a program that is all dead code was rejected above by
	// the fall-off check, but be explicit).
	for pc := 0; pc < n; pc++ {
		if states[pc].live && p.Insns[pc].Op == OpExit {
			p.verified = true
			return stats, nil
		}
	}
	return fail(-1, "no reachable exit")
}

// aluResult computes the abstract result of a non-mov ALU op.
func aluResult(op Op, dst, src regState) (regState, string) {
	// Pointer arithmetic: stack/ctx/map-value pointers admit +/- of a
	// known constant so programs can form field and buffer addresses.
	if dst.typ.isPointer() && dst.typ != tConstMapPtr {
		if op != OpAddImm && op != OpAddReg && op != OpSubImm && op != OpSubReg {
			return dst, fmt.Sprintf("arithmetic %s on %s pointer", op, dst.typ)
		}
		if src.typ != tScalar || !src.iv.IsConst() {
			return dst, fmt.Sprintf("pointer arithmetic with unknown offset (%s)", src.typ)
		}
		delta := src.iv.Lo
		if op == OpSubImm || op == OpSubReg {
			delta = -delta
		}
		return pointer(dst.typ, dst.mapIdx, dst.off()+delta), ""
	}
	if dst.typ != tScalar {
		return dst, fmt.Sprintf("arithmetic on %s operand", dst.typ)
	}
	if src.typ != tScalar {
		return dst, fmt.Sprintf("arithmetic with %s operand", src.typ)
	}
	if (op == OpDivImm || op == OpModImm) && src.iv == Const(0) {
		return dst, "division by constant zero"
	}
	return scalar(intervalALU(op, dst.iv, src.iv)), ""
}

// maxTopologyID bounds the CPU and NUMA node ids the cpu and numa_node
// helpers return; the VM faults a call whose Env returns one outside
// [0, maxTopologyID].
const maxTopologyID = 4096

// helperReturn is the abstract R0 a call of h leaves; mapIdx is its map
// argument's. Each is what the VM's helper returns.
func helperReturn(h HelperID, mapIdx uint8) regState {
	switch h {
	case HelperMapLookup:
		return pointer(tPtrMapValueOrNull, mapIdx, 0)
	case HelperCPU, HelperNUMANode:
		return scalar(Interval{0, maxTopologyID})
	case HelperTrace:
		return scalar(Const(0))
	}
	// map_update, map_delete and map_add return 0 or an errno, and the
	// environment probes anything at all.
	return scalar(Top)
}

// refineCond narrows the jump's Dst, whose state before the jump is dst,
// in the taken and fall-through states where the comparison's semantics
// allow it: the map_lookup null check splits into a null scalar and a
// non-null pointer, and a scalar compared with an immediate is clipped to
// the range each branch implies.
func refineCond(in Instruction, dst regState, taken, fall *State) {
	if dst.typ == tPtrMapValueOrNull {
		null, nonNull := scalar(Const(0)), pointer(tPtrMapValue, dst.mapIdx, dst.off())
		if in.Op == OpJeqImm { // jeq r,0: taken => null
			taken.regs[in.Dst], fall.regs[in.Dst] = null, nonNull
		} else { // jne r,0: taken => non-null
			taken.regs[in.Dst], fall.regs[in.Dst] = nonNull, null
		}
		return
	}
	if in.Op.UsesSrcReg() {
		return
	}
	iv, imm := dst.iv, in.Imm
	set := func(st *State, niv Interval) {
		if niv.Lo > niv.Hi {
			// Contradiction: the branch is infeasible under the abstract
			// state; keep the old interval (sound, just less precise).
			return
		}
		st.regs[in.Dst] = scalar(niv)
	}
	above := func(lo int64) Interval { return Interval{max(iv.Lo, lo), iv.Hi} }
	below := func(hi int64) Interval { return Interval{iv.Lo, min(iv.Hi, hi)} }
	switch in.Op {
	case OpJeqImm:
		set(taken, Const(imm))
	case OpJneImm:
		set(fall, Const(imm))
	case OpJgtImm, OpJgeImm, OpJltImm, OpJleImm:
		// Unsigned comparisons agree with signed ones only when both
		// sides are proven non-negative.
		if iv.Lo < 0 || imm < 0 {
			return
		}
	}
	switch in.Op {
	case OpJsgtImm, OpJgtImm:
		set(taken, above(imm+1))
		set(fall, below(imm))
	case OpJsgeImm, OpJgeImm:
		set(taken, above(imm))
		set(fall, below(imm-1))
	case OpJsltImm, OpJltImm:
		set(taken, below(imm-1))
		set(fall, above(imm))
	case OpJsleImm, OpJleImm:
		set(taken, below(imm))
		set(fall, above(imm+1))
	}
}
