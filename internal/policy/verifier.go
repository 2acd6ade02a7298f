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

// regState is the abstract value of one register.
type regState struct {
	typ     regType
	off     int64 // pointer offset (stack: relative to FP; ctx/map value: bytes)
	mapIdx  int   // for map-related types
	constOK bool  // scalar with a known constant value
	constV  int64
}

func scalarUnknown() regState      { return regState{typ: tScalar} }
func scalarConst(v int64) regState { return regState{typ: tScalar, constOK: true, constV: v} }

func (r regState) equal(o regState) bool { return r == o }

// merge joins two register states at a control-flow join point.
func (r regState) merge(o regState) regState {
	if r.equal(o) {
		return r
	}
	if r.typ != o.typ || r.mapIdx != o.mapIdx {
		return regState{typ: tUninit}
	}
	switch r.typ {
	case tScalar:
		return scalarUnknown()
	case tPtrStack, tPtrCtx, tPtrMapValue, tPtrMapValueOrNull:
		if r.off != o.off {
			// A pointer whose offset depends on the path taken cannot be
			// bounds-checked statically; poison it.
			return regState{typ: tUninit}
		}
		return r
	}
	return regState{typ: tUninit}
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

// absState is the abstract machine state at one program point.
type absState struct {
	regs  [NumRegs]regState
	stack stackMap
	live  bool
}

func (s *absState) merge(o *absState) {
	if !s.live {
		*s = *o
		return
	}
	for i := range s.regs {
		s.regs[i] = s.regs[i].merge(o.regs[i])
	}
	s.stack.intersect(&o.stack)
}

// verifyStates recycles Verify's per-instruction state array, its one
// large allocation (512 B per instruction). A policy lifecycle verifies
// each program twice — once when it is compiled, once more when
// LoadPolicy admits it — and the lock path makes no garbage for the
// collector to hand that memory back out of, so without the pool every
// lifecycle pays for fresh pages. Each run clears the prefix it uses.
var verifyStates = sync.Pool{New: func() any { return new([]absState) }}

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
//   - helper calls are restricted to the kind's whitelist with typed
//     arguments (map pointers, initialized stack buffers of the map's key
//     or value size, scalars);
//   - the program ends by Exit with R0 initialized on every path.
func Verify(p *Program) (VerifyStats, error) {
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

	buf := verifyStates.Get().(*[]absState)
	defer verifyStates.Put(buf)
	if cap(*buf) < n {
		*buf = make([]absState, n)
	}
	states := (*buf)[:n]
	clear(states)
	entry := &states[0]
	entry.live = true
	for i := range entry.regs {
		entry.regs[i] = regState{typ: tUninit}
	}
	entry.regs[R1] = regState{typ: tPtrCtx}
	entry.regs[RFP] = regState{typ: tPtrStack}

	// propagate merges st into states[to].
	propagate := func(pc int, st *absState, to int) error {
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

	touchStack := func(off int64) {
		if used := int(-off); used > stats.MaxStackUsed {
			stats.MaxStackUsed = used
		}
	}

	// checkStackRange validates [base+off, base+off+size) is a legal
	// stack region; init=true additionally requires every byte be
	// initialized; mark=true marks the bytes initialized.
	checkStackRange := func(st *absState, ptr regState, off int64, size int, init, mark bool) string {
		lo := ptr.off + off
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
		touchStack(lo)
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

		readReg := func(r Reg) (regState, string) {
			rs := st.regs[r]
			if rs.typ == tUninit {
				return rs, fmt.Sprintf("read of uninitialized register %s", r)
			}
			return rs, ""
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
			var argMapIdx int
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
				st.regs[r] = regState{typ: tUninit}
			}
			switch spec.ret {
			case retScalar:
				st.regs[R0] = scalarUnknown()
			case retMapValueOrNull:
				st.regs[R0] = regState{typ: tPtrMapValueOrNull, mapIdx: argMapIdx}
			}
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
			st.regs[in.Dst] = regState{typ: tConstMapPtr, mapIdx: int(in.Imm)}
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
			var srcTyp regType = tScalar
			if in.Op.UsesSrcReg() {
				src, msg := readReg(in.Src)
				if msg != "" {
					return fail(pc, "%s", msg)
				}
				srcTyp = src.typ
			}
			// The only pointer comparison allowed is the null check of a
			// maybe-null map value against immediate 0.
			nullCheck := dst.typ == tPtrMapValueOrNull &&
				!in.Op.UsesSrcReg() && in.Imm == 0 &&
				(in.Op == OpJeqImm || in.Op == OpJneImm)
			if dst.typ != tScalar && !nullCheck {
				return fail(pc, "conditional jump on %s operand", dst.typ)
			}
			if srcTyp != tScalar {
				return fail(pc, "conditional jump against %s operand", srcTyp)
			}

			taken := st
			fall := st
			if nullCheck {
				isNull := scalarConst(0)
				nonNull := regState{typ: tPtrMapValue, mapIdx: dst.mapIdx}
				if in.Op == OpJeqImm { // jeq r,0: taken => null
					taken.regs[in.Dst] = isNull
					fall.regs[in.Dst] = nonNull
				} else { // jne r,0: taken => non-null
					taken.regs[in.Dst] = nonNull
					fall.regs[in.Dst] = isNull
				}
			}
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
			switch ptr.typ {
			case tPtrStack:
				if msg := checkStackRange(&st, ptr, int64(in.Off), size, true, false); msg != "" {
					return fail(pc, "%s", msg)
				}
			case tPtrCtx:
				off := ptr.off + int64(in.Off)
				f, ok := layout.FieldAt(int(off))
				if !ok || size != 8 {
					return fail(pc, "ctx load at offset %d size %d does not match a %s field", off, size, p.Kind)
				}
				_ = f
			case tPtrMapValue:
				off := ptr.off + int64(in.Off)
				vs := int64(p.Maps[ptr.mapIdx].ValueSize())
				if size != 8 || off%8 != 0 || off < 0 || off+8 > vs {
					return fail(pc, "map value load at offset %d size %d (value size %d; must be aligned 8-byte access)", off, size, vs)
				}
			case tPtrMapValueOrNull:
				return fail(pc, "map value access before null check")
			default:
				return fail(pc, "load through non-pointer (%s)", ptr.typ)
			}
			st.regs[in.Dst] = scalarUnknown()
			if err := propagate(pc, &st, pc+1); err != nil {
				return stats, err
			}

		case in.Op.IsStore():
			ptr, msg := readReg(in.Dst)
			if msg != "" {
				return fail(pc, "%s", msg)
			}
			size := in.Op.AccessSize()
			if in.Op.UsesSrcReg() {
				src, msg := readReg(in.Src)
				if msg != "" {
					return fail(pc, "%s", msg)
				}
				if src.typ != tScalar {
					// Pointer spilling is not supported in this dialect;
					// policies keep pointers in registers.
					return fail(pc, "store of %s value (only scalars may be stored)", src.typ)
				}
			}
			switch ptr.typ {
			case tPtrStack:
				if msg := checkStackRange(&st, ptr, int64(in.Off), size, false, true); msg != "" {
					return fail(pc, "%s", msg)
				}
			case tPtrCtx:
				return fail(pc, "context is read-only; decisions are returned, not written (mutual-exclusion safety)")
			case tPtrMapValue:
				off := ptr.off + int64(in.Off)
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
			var src regState
			if in.Op.UsesSrcReg() {
				var msg string
				src, msg = readReg(in.Src)
				if msg != "" {
					return fail(pc, "%s", msg)
				}
			} else {
				src = scalarConst(in.Imm)
			}
			if in.Op == OpMovImm {
				st.regs[in.Dst] = scalarConst(in.Imm)
			} else if in.Op == OpMovReg {
				st.regs[in.Dst] = src
			} else {
				dst, msg := readReg(in.Dst)
				if msg != "" {
					return fail(pc, "%s", msg)
				}
				ns, errMsg := aluResult(in.Op, dst, src)
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
		if src.typ != tScalar || !src.constOK {
			return dst, fmt.Sprintf("pointer arithmetic with unknown offset (%s)", src.typ)
		}
		delta := src.constV
		if op == OpSubImm || op == OpSubReg {
			delta = -delta
		}
		out := dst
		out.off += delta
		return out, ""
	}
	if dst.typ != tScalar {
		return dst, fmt.Sprintf("arithmetic on %s operand", dst.typ)
	}
	if src.typ != tScalar {
		return dst, fmt.Sprintf("arithmetic with %s operand", src.typ)
	}
	if (op == OpDivImm || op == OpModImm) && src.constOK && src.constV == 0 {
		return dst, "division by constant zero"
	}
	if !dst.constOK || !src.constOK {
		return scalarUnknown(), ""
	}
	a, b := uint64(dst.constV), uint64(src.constV)
	var r uint64
	switch op {
	case OpAddImm, OpAddReg:
		r = a + b
	case OpSubImm, OpSubReg:
		r = a - b
	case OpMulImm, OpMulReg:
		r = a * b
	case OpDivImm, OpDivReg:
		if b == 0 {
			r = 0
		} else {
			r = a / b
		}
	case OpModImm, OpModReg:
		if b == 0 {
			r = a
		} else {
			r = a % b
		}
	case OpAndImm, OpAndReg:
		r = a & b
	case OpOrImm, OpOrReg:
		r = a | b
	case OpXorImm, OpXorReg:
		r = a ^ b
	case OpLshImm, OpLshReg:
		r = a << (b & 63)
	case OpRshImm, OpRshReg:
		r = a >> (b & 63)
	case OpArshImm, OpArshReg:
		r = uint64(int64(a) >> (b & 63))
	case OpNeg:
		r = -a
	default:
		return scalarUnknown(), ""
	}
	return scalarConst(int64(r)), ""
}
