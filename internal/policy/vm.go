package policy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/faultinject"
)

// ErrNotVerified is returned when executing a program that has not passed
// the verifier. The framework never does this; the check is
// defense-in-depth for direct VM users.
var ErrNotVerified = errors.New("policy: program has not been verified")

// RuntimeError reports a fault during execution. For a verified program
// every RuntimeError indicates a bug in the verifier or VM (they are the
// "impossible" paths); the framework reacts by detaching the policy and
// falling back to default behaviour, the runtime analogue of the paper's
// safety checks.
type RuntimeError struct {
	Name string
	PC   int
	Msg  string
}

// Error implements error.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("policy vm: program %q: pc %d: %s", e.Name, e.PC, e.Msg)
}

// rtVal is a runtime register value with its dynamic type. Along any
// single execution path the dynamic type equals the verifier's static
// type, so these checks can only fire on verifier bugs.
type rtVal struct {
	v      uint64   // scalar value, or pointer offset
	typ    regType  // dynamic type
	mapIdx int      // for map pointers/values
	val    []uint64 // backing words for tPtrMapValue
}

// stackPool recycles interpreter stacks. Helper calls hand slices of the
// stack to Map implementations through an interface, so a stack declared
// in Exec's frame is moved to the heap — one 512-byte allocation per run.
var stackPool = sync.Pool{New: func() any { return new([StackSize]byte) }}

// VM executes verified programs. A VM is stateless and safe for
// concurrent use; per-run state lives on the goroutine stack and in a
// pooled program stack.
type VM struct{}

// Exec runs a verified program against a hook context and environment,
// returning the program's R0.
func (VM) Exec(p *Program, ctx *Ctx, env Env) (uint64, error) {
	if !p.verified {
		return 0, ErrNotVerified
	}
	if env == nil {
		env = DefaultEnv
	}
	if ctx == nil || ctx.Layout.Kind != p.Kind {
		return 0, &RuntimeError{Name: p.Name, PC: -1, Msg: "context kind mismatch"}
	}

	var regs [NumRegs]rtVal
	regs[R1] = rtVal{typ: tPtrCtx}
	regs[RFP] = rtVal{typ: tPtrStack}

	st := &p.stats
	st.Runs.Add(1)
	if faultinject.PolicyTrap.Enabled() {
		if flt, ok := faultinject.PolicyTrap.Fire(); ok {
			st.Faults.Add(1)
			return 0, &RuntimeError{Name: p.Name, PC: -1,
				Msg: fmt.Sprintf("injected trap: %v", flt.Err)}
		}
	}
	stack := stackPool.Get().(*[StackSize]byte)
	*stack = [StackSize]byte{} // every run starts on a zeroed stack
	var steps int
	defer func() {
		st.Insns.Add(int64(steps))
		stackPool.Put(stack)
	}()

	fault := func(pc int, format string, args ...any) (uint64, error) {
		st.Faults.Add(1)
		return 0, &RuntimeError{Name: p.Name, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}

	n := len(p.Insns)
	// Verified programs are loop-free: each instruction executes at most
	// once, so n iterations bound the run. Keep an explicit budget as a
	// final backstop.
	for pc := 0; pc < n; steps++ {
		if steps > n {
			return fault(pc, "step budget exceeded (verifier bug)")
		}
		in := p.Insns[pc]

		switch {
		case in.Op == OpExit:
			if regs[R0].typ != tScalar {
				return fault(pc, "exit with non-scalar R0")
			}
			return regs[R0].v, nil

		case in.Op == OpCall:
			r0, err := execHelper(p, HelperID(in.Imm), &regs, stack[:], env)
			if err != nil {
				return fault(pc, "%v", err)
			}
			regs[R0] = r0
			for r := R1; r <= R5; r++ {
				regs[r] = rtVal{}
			}
			pc++

		case in.Op == OpLoadMapPtr:
			regs[in.Dst] = rtVal{typ: tConstMapPtr, mapIdx: int(in.Imm)}
			pc++

		case in.Op == OpJa:
			pc += 1 + int(in.Off)

		case in.Op.IsCondJump():
			a := regs[in.Dst]
			var b uint64
			if in.Op.UsesSrcReg() {
				b = regs[in.Src].v
			} else {
				b = uint64(in.Imm)
			}
			// Null checks compare the pointer representation: a null map
			// value has a nil backing slice.
			av := a.v
			if a.typ == tPtrMapValueOrNull {
				if a.val == nil {
					av = 0
				} else {
					av = 1 // any non-zero stand-in
				}
			}
			if condTaken(in.Op, av, b) {
				// Refine maybe-null pointers exactly as the verifier did.
				if a.typ == tPtrMapValueOrNull {
					regs[in.Dst] = refineNull(a, in.Op == OpJneImm)
				}
				pc += 1 + int(in.Off)
			} else {
				if a.typ == tPtrMapValueOrNull {
					regs[in.Dst] = refineNull(a, in.Op == OpJeqImm)
				}
				pc++
			}

		case in.Op.IsLoad():
			ptr := regs[in.Src]
			size := in.Op.AccessSize()
			var v uint64
			switch ptr.typ {
			case tPtrStack:
				idx := int(int64(ptr.v)) + int(in.Off) + StackSize
				if idx < 0 || idx+size > StackSize {
					return fault(pc, "stack load out of bounds")
				}
				v = loadBytes(stack[idx:idx+size], size)
			case tPtrCtx:
				off := int(int64(ptr.v)) + int(in.Off)
				if off%8 != 0 || off/8 >= len(ctx.Words) || off < 0 {
					return fault(pc, "ctx load out of bounds")
				}
				v = ctx.Words[off/8]
			case tPtrMapValue:
				off := int(int64(ptr.v)) + int(in.Off)
				if size != 8 || off%8 != 0 || off < 0 || off/8 >= len(ptr.val) {
					return fault(pc, "map value load out of bounds")
				}
				v = atomic.LoadUint64(&ptr.val[off/8])
			default:
				return fault(pc, "load through %s", ptr.typ)
			}
			regs[in.Dst] = rtVal{typ: tScalar, v: v}
			pc++

		case in.Op.IsStore():
			ptr := regs[in.Dst]
			size := in.Op.AccessSize()
			var v uint64
			if in.Op.UsesSrcReg() {
				v = regs[in.Src].v
			} else {
				v = uint64(in.Imm)
			}
			switch ptr.typ {
			case tPtrStack:
				idx := int(int64(ptr.v)) + int(in.Off) + StackSize
				if idx < 0 || idx+size > StackSize {
					return fault(pc, "stack store out of bounds")
				}
				storeBytes(stack[idx:idx+size], size, v)
			case tPtrMapValue:
				off := int(int64(ptr.v)) + int(in.Off)
				if size != 8 || off%8 != 0 || off < 0 || off/8 >= len(ptr.val) {
					return fault(pc, "map value store out of bounds")
				}
				atomic.StoreUint64(&ptr.val[off/8], v)
			default:
				return fault(pc, "store through %s", ptr.typ)
			}
			pc++

		case in.Op.IsALU():
			var src rtVal
			if in.Op.UsesSrcReg() {
				src = regs[in.Src]
			} else {
				src = rtVal{typ: tScalar, v: uint64(in.Imm)}
			}
			switch in.Op {
			case OpMovImm, OpMovReg:
				regs[in.Dst] = src
			default:
				dst := regs[in.Dst]
				if dst.typ.isPointer() {
					// Verified pointer arithmetic: adjust the offset.
					delta := int64(src.v)
					if in.Op == OpSubImm || in.Op == OpSubReg {
						delta = -delta
					}
					dst.v = uint64(int64(dst.v) + delta)
					regs[in.Dst] = dst
				} else {
					regs[in.Dst] = rtVal{typ: tScalar, v: aluExec(in.Op, dst.v, src.v)}
				}
			}
			pc++

		default:
			return fault(pc, "unhandled opcode %s", in.Op)
		}
	}
	return fault(n-1, "fell off the end (verifier bug)")
}

func refineNull(a rtVal, nonNull bool) rtVal {
	if nonNull {
		return rtVal{typ: tPtrMapValue, mapIdx: a.mapIdx, val: a.val}
	}
	return rtVal{typ: tScalar, v: 0}
}

func condTaken(op Op, a, b uint64) bool {
	switch op {
	case OpJeqImm, OpJeqReg:
		return a == b
	case OpJneImm, OpJneReg:
		return a != b
	case OpJgtImm, OpJgtReg:
		return a > b
	case OpJgeImm, OpJgeReg:
		return a >= b
	case OpJltImm, OpJltReg:
		return a < b
	case OpJleImm, OpJleReg:
		return a <= b
	case OpJsgtImm, OpJsgtReg:
		return int64(a) > int64(b)
	case OpJsgeImm, OpJsgeReg:
		return int64(a) >= int64(b)
	case OpJsltImm, OpJsltReg:
		return int64(a) < int64(b)
	case OpJsleImm, OpJsleReg:
		return int64(a) <= int64(b)
	case OpJsetImm, OpJsetReg:
		return a&b != 0
	}
	return false
}

func aluExec(op Op, a, b uint64) uint64 {
	switch op {
	case OpAddImm, OpAddReg:
		return a + b
	case OpSubImm, OpSubReg:
		return a - b
	case OpMulImm, OpMulReg:
		return a * b
	case OpDivImm, OpDivReg:
		if b == 0 {
			return 0
		}
		return a / b
	case OpModImm, OpModReg:
		if b == 0 {
			return a
		}
		return a % b
	case OpAndImm, OpAndReg:
		return a & b
	case OpOrImm, OpOrReg:
		return a | b
	case OpXorImm, OpXorReg:
		return a ^ b
	case OpLshImm, OpLshReg:
		return a << (b & 63)
	case OpRshImm, OpRshReg:
		return a >> (b & 63)
	case OpArshImm, OpArshReg:
		return uint64(int64(a) >> (b & 63))
	case OpNeg:
		return -a
	}
	return 0
}

func loadBytes(b []byte, size int) uint64 {
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

func storeBytes(b []byte, size int, v uint64) {
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

// stackRegion extracts an initialized stack region addressed by a stack
// pointer register (verified in bounds).
func stackRegion(stack []byte, ptr rtVal, size int) ([]byte, error) {
	idx := int(int64(ptr.v)) + StackSize
	if idx < 0 || idx+size > StackSize {
		return nil, fmt.Errorf("stack buffer out of bounds")
	}
	return stack[idx : idx+size], nil
}

func execHelper(p *Program, h HelperID, regs *[NumRegs]rtVal, stack []byte, env Env) (rtVal, error) {
	p.stats.HelperCalls.Add(1)
	// Fault-injection sites, compiled to nil-checks when disarmed.
	if faultinject.PolicyHelper.Enabled() {
		if flt, ok := faultinject.PolicyHelper.Fire(); ok {
			if flt.Delay > 0 {
				time.Sleep(flt.Delay)
			}
			return rtVal{}, fmt.Errorf("helper %s: %w", h, flt.Err)
		}
	}
	if h >= HelperMapLookup && h <= HelperMapAdd {
		p.stats.MapOps.Add(1)
		if faultinject.PolicyMapOp.Enabled() {
			if flt, ok := faultinject.PolicyMapOp.Fire(); ok {
				return rtVal{}, fmt.Errorf("map op %s: %w", h, flt.Err)
			}
		}
	}
	scalar := func(v uint64) rtVal { return rtVal{typ: tScalar, v: v} }
	mapArg := func() (Map, int, error) {
		r1 := regs[R1]
		if r1.typ != tConstMapPtr || r1.mapIdx >= len(p.Maps) {
			return nil, 0, fmt.Errorf("%s: R1 is not a map", h)
		}
		return p.Maps[r1.mapIdx], r1.mapIdx, nil
	}

	switch h {
	case HelperMapLookup:
		m, idx, err := mapArg()
		if err != nil {
			return rtVal{}, err
		}
		key, err := stackRegion(stack, regs[R2], m.KeySize())
		if err != nil {
			return rtVal{}, err
		}
		return rtVal{typ: tPtrMapValueOrNull, mapIdx: idx, val: m.Lookup(key, env.CPU())}, nil

	case HelperMapUpdate:
		m, _, err := mapArg()
		if err != nil {
			return rtVal{}, err
		}
		key, err := stackRegion(stack, regs[R2], m.KeySize())
		if err != nil {
			return rtVal{}, err
		}
		raw, err := stackRegion(stack, regs[R3], m.ValueSize())
		if err != nil {
			return rtVal{}, err
		}
		// Every builtin map implements rawUpdater, decoding the stack
		// bytes straight into its value arena — the hook data plane
		// stays allocation-free. The word-slice fallback only runs for
		// custom Map implementations.
		if ru, ok := m.(rawUpdater); ok {
			if err := ru.UpdateRaw(key, raw, env.CPU()); err != nil {
				return scalar(^uint64(0)), nil // -1, errno style
			}
			return scalar(0), nil
		}
		words := make([]uint64, m.ValueSize()/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		if err := m.Update(key, words, env.CPU()); err != nil {
			return scalar(^uint64(0)), nil // -1, errno style
		}
		return scalar(0), nil

	case HelperMapDelete:
		m, _, err := mapArg()
		if err != nil {
			return rtVal{}, err
		}
		key, err := stackRegion(stack, regs[R2], m.KeySize())
		if err != nil {
			return rtVal{}, err
		}
		if err := m.Delete(key); err != nil {
			return scalar(^uint64(0)), nil
		}
		return scalar(0), nil

	case HelperMapAdd:
		m, _, err := mapArg()
		if err != nil {
			return rtVal{}, err
		}
		key, err := stackRegion(stack, regs[R2], m.KeySize())
		if err != nil {
			return rtVal{}, err
		}
		var v []uint64
		if ml, ok := m.(interface {
			LookupOrInit(key []byte, cpu int) []uint64
		}); ok {
			// Atomic insert-if-absent so counting policies need no
			// userspace priming and first touches cannot race.
			v = ml.LookupOrInit(key, env.CPU())
		} else {
			v = m.Lookup(key, env.CPU())
		}
		if v == nil {
			return scalar(^uint64(0)), nil
		}
		atomic.AddUint64(&v[0], regs[R3].v)
		return scalar(0), nil

	case HelperKtimeNS:
		return scalar(uint64(env.NowNS())), nil
	case HelperCPU:
		return scalar(uint64(env.CPU())), nil
	case HelperNUMANode:
		return scalar(uint64(env.NUMANode())), nil
	case HelperTaskID:
		return scalar(uint64(env.TaskID())), nil
	case HelperTaskPrio:
		return scalar(uint64(env.TaskPriority())), nil
	case HelperRand:
		return scalar(env.Rand()), nil
	case HelperTrace:
		env.Trace(regs[R1].v)
		return scalar(0), nil
	case HelperLockStats:
		// Optional-interface probe: environments without windowed
		// profile visibility read 0, keeping profile-gated policies
		// runnable (on their low-contention branch) everywhere.
		if r, ok := env.(LockStatReader); ok {
			return scalar(r.LockStat(regs[R1].v)), nil
		}
		return scalar(0), nil
	case HelperOCCSet:
		// Same optional-interface shape as lock_stats_read: without a
		// routed lock the helper reports "no change", so occ-gating
		// policies run (inertly) on any environment.
		if r, ok := env.(OCCSetter); ok {
			return scalar(r.OCCSet(regs[R1].v)), nil
		}
		return scalar(0), nil
	}
	return rtVal{}, fmt.Errorf("unknown helper %d", int64(h))
}

// Exec is a package-level convenience running p on the shared stateless VM.
func Exec(p *Program, ctx *Ctx, env Env) (uint64, error) {
	return VM{}.Exec(p, ctx, env)
}

// CompiledFn is the signature Exec's faster tiers share: a program
// lowered ahead of time (see the jit package) and run with the same
// arguments and results as Exec.
type CompiledFn func(ctx *Ctx, env Env) (uint64, error)
