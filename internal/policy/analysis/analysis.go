// Package analysis is Concord's static-analysis layer over verified
// policy programs: an abstract interpreter that turns the verifier's
// qualitative proof ("this program is safe to run") into quantitative,
// proven-before-attach facts ("this program costs at most N ns, touches
// these maps, and returns a value in [0,2]").
//
// The verifier (internal/policy) already guarantees the properties the
// abstract interpreter leans on: every jump is forward, so the CFG is a
// DAG and each instruction executes at most once; every register is
// typed; and memory access is bounds-checked. On top of that base the
// analysis computes, per program:
//
//   - interval (value-range) facts per register and per written map
//     slot, by abstract interpretation over the interval domain;
//   - a worst-case cost bound: the maximum, over all CFG paths, of the
//     summed instruction and helper costs (see cost.go). Because the
//     CFG is a DAG this is a longest-path computation, exact with
//     respect to the cost model;
//   - a map-footprint summary: which maps are touched, read vs write,
//     and how many key/value bytes each access can reach;
//   - lock-safety facts and warnings: determinism, read-onlyness,
//     debug/rand helpers flagged in hot (decision) hooks, and decision
//     return values proven in range.
//
// The Report is machine-readable (stable JSON) and is consumed by
// internal/core for admission control and watchdog budgeting, recorded
// on the livepatch attachment, and surfaced by `concordctl analyze`.
package analysis

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"concord/internal/policy"
)

// Interval is a signed value-range fact: the value is proven to lie in
// [Lo, Hi]. The full range is "top" (no information).
type Interval struct {
	Lo, Hi int64
}

// Top is the interval carrying no information.
var Top = Interval{math.MinInt64, math.MaxInt64}

// Const returns the singleton interval {v}.
func Const(v int64) Interval { return Interval{v, v} }

// IsTop reports whether the interval carries no information.
func (i Interval) IsTop() bool { return i.Lo == math.MinInt64 && i.Hi == math.MaxInt64 }

// IsConst reports whether the interval is a single value.
func (i Interval) IsConst() bool { return i.Lo == i.Hi }

// Contains reports whether the interval is within [lo, hi].
func (i Interval) Within(lo, hi int64) bool { return i.Lo >= lo && i.Hi <= hi }

// Join returns the smallest interval containing both.
func (i Interval) Join(o Interval) Interval {
	return Interval{min64(i.Lo, o.Lo), max64(i.Hi, o.Hi)}
}

// String renders "top", a constant, or "[lo,hi]".
func (i Interval) String() string {
	switch {
	case i.IsTop():
		return "top"
	case i.IsConst():
		return fmt.Sprintf("%d", i.Lo)
	default:
		return fmt.Sprintf("[%d,%d]", i.Lo, i.Hi)
	}
}

// MarshalJSON renders the interval as its String form, keeping reports
// (and their golden files) compact and diffable.
func (i Interval) MarshalJSON() ([]byte, error) { return json.Marshal(i.String()) }

// UnmarshalJSON parses the String form back ("top", "42", "[lo,hi]").
func (i *Interval) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if s == "top" {
		*i = Top
		return nil
	}
	if n, err := fmt.Sscanf(s, "[%d,%d]", &i.Lo, &i.Hi); err == nil && n == 2 {
		return nil
	}
	if n, err := fmt.Sscanf(s, "%d", &i.Lo); err == nil && n == 1 {
		i.Hi = i.Lo
		return nil
	}
	return fmt.Errorf("analysis: bad interval %q", s)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MapFootprint summarises a program's use of one referenced map.
type MapFootprint struct {
	Map string `json:"map"`
	// Kind is the concrete map kind ("array", "hash", "percpu_hash",
	// ...); the cost model charges lock-free kinds less than the
	// mutex-based locked_hash.
	Kind       string `json:"kind,omitempty"`
	KeySize    int    `json:"key_size"`
	ValueSize  int    `json:"value_size"`
	MaxEntries int    `json:"max_entries"`
	// ReadSites / WriteSites count reachable instructions that read
	// (map_lookup, loads through a value pointer) or mutate (map_update,
	// map_delete, map_add, stores through a value pointer) the map.
	ReadSites  int `json:"read_sites"`
	WriteSites int `json:"write_sites"`
	// MaxKeyBytes / MaxValueBytes bound the key and value bytes any
	// single access touches.
	MaxKeyBytes   int `json:"max_key_bytes"`
	MaxValueBytes int `json:"max_value_bytes"`
	// Slots maps written value offsets ("+0", "+8", ...) to the interval
	// of values the program can store there (joined over all reachable
	// stores; "top" when unknown, e.g. map_add accumulation).
	Slots map[string]Interval `json:"slots,omitempty"`
}

// Facts are the lock-safety properties the analysis proves.
type Facts struct {
	// Terminates: forward-jump-only CFG, so every run executes at most
	// LongestPath instructions. Always true for verified programs.
	Terminates bool `json:"terminates"`
	// CtxReadOnly: the verifier rejects context stores, so the program
	// cannot alter hook inputs. Always true for verified programs.
	CtxReadOnly bool `json:"ctx_read_only"`
	// Deterministic: no rand or time helpers — same inputs and map
	// state produce the same decision.
	Deterministic bool `json:"deterministic"`
	// ReadOnly: no map mutation helpers and no stores through map value
	// pointers — the program observes but never writes shared state.
	ReadOnly bool `json:"read_only"`
	// HotPathClean: no trace/rand helpers on a decision (non-profiling)
	// hook; vacuously true for profiling hooks.
	HotPathClean bool `json:"hot_path_clean"`
}

// Warning codes.
const (
	WarnTraceInHotHook = "trace-in-hot-hook"
	WarnRandInHotHook  = "rand-in-hot-hook"
	WarnReturnRange    = "return-out-of-range"
	WarnReturnUnknown  = "return-unbounded"
)

// Warning is one lock-safety finding, anchored at an instruction.
type Warning struct {
	PC   int    `json:"pc"`
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// Report is the machine-readable result of analysing one program.
type Report struct {
	Program string `json:"program"`
	Kind    string `json:"kind"`
	Insns   int    `json:"insns"`

	// CostBound is the worst-case execution cost in cost units
	// (calibrated so one unit ≈ one nanosecond of estimated worst-case
	// execution; see cost.go): the maximum over all CFG paths of summed
	// per-instruction and per-helper costs. It is exact with respect to
	// the cost model because verified programs are loop-free.
	CostBound int64 `json:"cost_bound_ns"`
	// LongestPath is the instruction count of the longest CFG path.
	LongestPath int `json:"longest_path_insns"`
	// MaxHelperCalls bounds helper invocations on any single run.
	MaxHelperCalls int `json:"max_helper_calls"`

	// Return is the program's return-value (R0 at exit) interval,
	// joined over every reachable exit.
	Return Interval `json:"return"`
	// Registers holds exit-state intervals for registers proven to hold
	// a scalar narrower than top (joined over reachable exits).
	Registers map[string]Interval `json:"registers,omitempty"`

	// CtxReads is the context half of the footprint: the names of the
	// context fields some reachable instruction loads, sorted.
	CtxReads  []string       `json:"ctx_reads,omitempty"`
	Footprint []MapFootprint `json:"footprint,omitempty"`
	Facts     Facts          `json:"facts"`
	Warnings  []Warning      `json:"warnings,omitempty"`
}

// String renders a human-oriented summary (concordctl analyze).
func (r *Report) String() string {
	out := fmt.Sprintf("program %q (%s): %d insns\n", r.Program, r.Kind, r.Insns)
	out += fmt.Sprintf("  cost bound:    %d ns (longest path %d insns, ≤%d helper calls)\n",
		r.CostBound, r.LongestPath, r.MaxHelperCalls)
	out += fmt.Sprintf("  return:        %s\n", r.Return)
	out += fmt.Sprintf("  facts:         terminates=%v ctx_read_only=%v deterministic=%v read_only=%v hot_path_clean=%v\n",
		r.Facts.Terminates, r.Facts.CtxReadOnly, r.Facts.Deterministic, r.Facts.ReadOnly, r.Facts.HotPathClean)
	if len(r.CtxReads) > 0 {
		out += fmt.Sprintf("  ctx reads:     %s\n", strings.Join(r.CtxReads, " "))
	}
	for _, f := range r.Footprint {
		out += fmt.Sprintf("  map %-12s key=%dB value=%dB entries=%d reads=%d writes=%d",
			f.Map, f.KeySize, f.ValueSize, f.MaxEntries, f.ReadSites, f.WriteSites)
		if len(f.Slots) > 0 {
			offs := make([]string, 0, len(f.Slots))
			for o := range f.Slots {
				offs = append(offs, o)
			}
			sort.Strings(offs)
			out += " slots:"
			for _, o := range offs {
				out += fmt.Sprintf(" %s=%s", o, f.Slots[o])
			}
		}
		out += "\n"
	}
	for _, w := range r.Warnings {
		out += fmt.Sprintf("  warning:       pc %d: %s: %s\n", w.PC, w.Code, w.Msg)
	}
	return out
}

// MaxCost returns the largest cost bound across a set of reports (the
// number admission compares against a per-hook budget).
func MaxCost(reports map[policy.Kind]*Report) int64 {
	var max int64
	for _, r := range reports {
		if r != nil && r.CostBound > max {
			max = r.CostBound
		}
	}
	return max
}

// --- abstract state ---

type vkind uint8

const (
	vUnknown vkind = iota
	vScalar
	vMapPtr
	vStackPtr
	vCtxPtr
	vMapValPtr // includes the maybe-null lookup result
)

type absVal struct {
	kind   vkind
	iv     Interval // vScalar only
	mapIdx int      // vMapPtr / vMapValPtr
	off    int64    // vStackPtr / vCtxPtr / vMapValPtr
}

func scalar(iv Interval) absVal { return absVal{kind: vScalar, iv: iv} }

func (v absVal) merge(o absVal) absVal {
	if v.kind != o.kind || v.mapIdx != o.mapIdx {
		return absVal{}
	}
	switch v.kind {
	case vScalar:
		return scalar(v.iv.Join(o.iv))
	default:
		if v.off != o.off {
			return absVal{}
		}
		return v
	}
}

// absState is the interval-domain state at one program point. Stack
// slots track intervals for 8-byte aligned scalar stores (the spill
// slots and map key/value buffers the DSL compiler emits).
type absState struct {
	regs  [policy.NumRegs]absVal
	stack map[int64]Interval
	live  bool
}

func (s *absState) clone() absState {
	out := *s
	out.stack = make(map[int64]Interval, len(s.stack))
	for k, v := range s.stack {
		out.stack[k] = v
	}
	return out
}

func (s *absState) merge(o *absState) {
	if !s.live {
		*s = o.clone()
		return
	}
	for i := range s.regs {
		s.regs[i] = s.regs[i].merge(o.regs[i])
	}
	for k, v := range s.stack {
		ov, ok := o.stack[k]
		if !ok {
			delete(s.stack, k)
			continue
		}
		s.stack[k] = v.Join(ov)
	}
}

// --- analysis ---

// Analyze abstractly interprets a verified program and returns its
// report. The program must have passed policy.Verify; unverified
// programs are verified first and the verifier's error is returned on
// rejection (analysis facts are only sound for verified programs).
func Analyze(p *policy.Program) (*Report, error) {
	if !p.Verified() {
		if _, err := policy.Verify(p); err != nil {
			return nil, fmt.Errorf("analysis: program must pass verification: %w", err)
		}
	}
	n := len(p.Insns)
	r := &Report{
		Program: p.Name,
		Kind:    p.Kind.String(),
		Insns:   n,
		Facts: Facts{
			Terminates:    true,
			CtxReadOnly:   true,
			Deterministic: true,
			ReadOnly:      true,
			HotPathClean:  true,
		},
	}

	// Per-map accumulators, indexed like p.Maps.
	type mapAcc struct {
		reads, writes  int
		maxKey, maxVal int
		slots          map[int64]Interval
	}
	accs := make([]mapAcc, len(p.Maps))
	for i := range accs {
		accs[i].slots = make(map[int64]Interval)
	}
	touchVal := func(idx int, hi int64) {
		if int(hi) > accs[idx].maxVal {
			accs[idx].maxVal = int(hi)
		}
	}
	writeSlot := func(idx int, off int64, iv Interval) {
		acc := &accs[idx]
		if cur, ok := acc.slots[off]; ok {
			acc.slots[off] = cur.Join(iv)
		} else {
			acc.slots[off] = iv
		}
	}

	// Forward abstract interpretation in pc order. All jumps are
	// forward, so one pass reaches the fixed point (every merge target
	// is ahead of the merging instruction).
	states := make([]absState, n)
	entry := &states[0]
	entry.live = true
	entry.stack = make(map[int64]Interval)
	entry.regs[policy.R1] = absVal{kind: vCtxPtr}
	entry.regs[policy.RFP] = absVal{kind: vStackPtr}

	hot := !p.Kind.IsProfiling()
	layout := policy.LayoutFor(p.Kind)
	var ctxReads uint64    // by slot; layouts have well under 64 fields
	var exitState absState // join of states at reachable exits

	propagate := func(st *absState, to int) {
		if to < n {
			states[to].merge(st)
		}
	}

	for pc := 0; pc < n; pc++ {
		if !states[pc].live {
			continue
		}
		st := states[pc].clone()
		in := p.Insns[pc]
		op := in.Op

		switch {
		case op == policy.OpExit:
			exitState.merge(&st)

		case op == policy.OpCall:
			h := policy.HelperID(in.Imm)
			switch h {
			case policy.HelperRand:
				r.Facts.Deterministic = false
				if hot {
					r.Facts.HotPathClean = false
					r.Warnings = append(r.Warnings, Warning{
						PC: pc, Code: WarnRandInHotHook,
						Msg: fmt.Sprintf("rand helper on the hot %s hook makes the decision nondeterministic", p.Kind),
					})
				}
			case policy.HelperKtimeNS:
				r.Facts.Deterministic = false
			case policy.HelperTrace:
				if hot {
					r.Facts.HotPathClean = false
					r.Warnings = append(r.Warnings, Warning{
						PC: pc, Code: WarnTraceInHotHook,
						Msg: fmt.Sprintf("trace (debug) helper on the hot %s hook costs %d ns per decision", p.Kind, HelperCosts[policy.HelperTrace]),
					})
				}
			}

			// Map helpers: the verifier proved R1 is a map pointer and
			// the stack buffers are sized; here we only account.
			if m1 := st.regs[policy.R1]; m1.kind == vMapPtr && m1.mapIdx < len(p.Maps) {
				idx := m1.mapIdx
				m := p.Maps[idx]
				switch h {
				case policy.HelperMapLookup:
					accs[idx].reads++
					if ks := m.KeySize(); ks > accs[idx].maxKey {
						accs[idx].maxKey = ks
					}
				case policy.HelperMapDelete:
					accs[idx].writes++
					r.Facts.ReadOnly = false
					if ks := m.KeySize(); ks > accs[idx].maxKey {
						accs[idx].maxKey = ks
					}
				case policy.HelperMapAdd:
					accs[idx].writes++
					r.Facts.ReadOnly = false
					if ks := m.KeySize(); ks > accs[idx].maxKey {
						accs[idx].maxKey = ks
					}
					touchVal(idx, 8)
					writeSlot(idx, 0, Top) // accumulator: unbounded over runs
				case policy.HelperMapUpdate:
					accs[idx].writes++
					r.Facts.ReadOnly = false
					if ks := m.KeySize(); ks > accs[idx].maxKey {
						accs[idx].maxKey = ks
					}
					vs := int64(m.ValueSize())
					touchVal(idx, vs)
					// The written value comes from the stack buffer at
					// R3; propagate per-slot intervals when tracked.
					if buf := st.regs[policy.R3]; buf.kind == vStackPtr {
						for o := int64(0); o < vs; o += 8 {
							iv, ok := st.stack[buf.off+o]
							if !ok {
								iv = Top
							}
							writeSlot(idx, o, iv)
						}
					} else {
						for o := int64(0); o < vs; o += 8 {
							writeSlot(idx, o, Top)
						}
					}
				}
			}

			// Model the return value (reads R1) before clobbering the
			// caller-saved registers.
			ret := helperReturn(h, p, &st)
			for reg := policy.R1; reg <= policy.R5; reg++ {
				st.regs[reg] = absVal{}
			}
			st.regs[policy.R0] = ret
			propagate(&st, pc+1)

		case op == policy.OpLoadMapPtr:
			st.regs[in.Dst] = absVal{kind: vMapPtr, mapIdx: int(in.Imm)}
			propagate(&st, pc+1)

		case op == policy.OpJa:
			propagate(&st, pc+1+int(in.Off))

		case op.IsCondJump():
			taken := st.clone()
			fall := st
			refineCond(in, &taken, &fall)
			propagate(&taken, pc+1+int(in.Off))
			propagate(&fall, pc+1)

		case op.IsLoad():
			ptr := st.regs[in.Src]
			loaded := scalar(Top)
			switch ptr.kind {
			case vCtxPtr:
				if f, ok := layout.FieldAt(int(ptr.off) + int(in.Off)); ok {
					ctxReads |= 1 << (f.Off / 8)
				}
			case vStackPtr:
				if off := ptr.off + int64(in.Off); op == policy.OpLdxDW {
					if iv, ok := st.stack[off]; ok {
						loaded = scalar(iv)
					}
				}
			case vMapValPtr:
				if ptr.mapIdx < len(p.Maps) {
					accs[ptr.mapIdx].reads++
					touchVal(ptr.mapIdx, ptr.off+int64(in.Off)+int64(op.AccessSize()))
				}
			}
			st.regs[in.Dst] = loaded
			propagate(&st, pc+1)

		case op.IsStore():
			ptr := st.regs[in.Dst]
			src := scalar(Const(in.Imm))
			if op.UsesSrcReg() {
				src = st.regs[in.Src]
				if src.kind != vScalar {
					src = scalar(Top)
				}
			}
			switch ptr.kind {
			case vStackPtr:
				off := ptr.off + int64(in.Off)
				if op == policy.OpStxDW || op == policy.OpStDW {
					st.stack[off] = src.iv
				} else {
					// Narrow store: the 8-byte slot no longer holds a
					// tracked scalar.
					delete(st.stack, off-off%8)
				}
			case vMapValPtr:
				if ptr.mapIdx < len(p.Maps) {
					r.Facts.ReadOnly = false
					accs[ptr.mapIdx].writes++
					off := ptr.off + int64(in.Off)
					touchVal(ptr.mapIdx, off+int64(op.AccessSize()))
					writeSlot(ptr.mapIdx, off, src.iv)
				}
			}
			propagate(&st, pc+1)

		case op.IsALU():
			st.regs[in.Dst] = aluAbstract(in, &st)
			propagate(&st, pc+1)
		}
	}

	// Exit-state register facts.
	if exitState.live {
		if rv := exitState.regs[policy.R0]; rv.kind == vScalar {
			r.Return = rv.iv
		} else {
			r.Return = Top
		}
		for reg := policy.R0; reg < policy.RFP; reg++ {
			v := exitState.regs[reg]
			if v.kind == vScalar && !v.iv.IsTop() {
				if r.Registers == nil {
					r.Registers = make(map[string]Interval)
				}
				r.Registers[reg.String()] = v.iv
			}
		}
	} else {
		r.Return = Top
	}

	// Decision-range warning for behavioural hooks.
	if hot {
		lo, hi := decisionRange(p.Kind)
		switch {
		case r.Return.IsTop():
			r.Warnings = append(r.Warnings, Warning{
				PC: 0, Code: WarnReturnUnknown,
				Msg: fmt.Sprintf("cannot bound the %s decision value (expected [%d,%d])", p.Kind, lo, hi),
			})
		case !r.Return.Within(lo, hi):
			r.Warnings = append(r.Warnings, Warning{
				PC: 0, Code: WarnReturnRange,
				Msg: fmt.Sprintf("%s decision value %s outside [%d,%d]; out-of-range values fall back to the default behaviour", p.Kind, r.Return, lo, hi),
			})
		}
	}

	// Cost and path bounds over the reachable DAG.
	r.CostBound, r.LongestPath, r.MaxHelperCalls = costBounds(p, states)

	// Footprint rows in map order.
	for i, m := range p.Maps {
		acc := &accs[i]
		fp := MapFootprint{
			Map: m.Name(), Kind: policy.MapKindOf(m),
			KeySize: m.KeySize(), ValueSize: m.ValueSize(),
			MaxEntries: m.MaxEntries(),
			ReadSites:  acc.reads, WriteSites: acc.writes,
			MaxKeyBytes: acc.maxKey, MaxValueBytes: acc.maxVal,
		}
		if len(acc.slots) > 0 {
			fp.Slots = make(map[string]Interval, len(acc.slots))
			for off, iv := range acc.slots {
				fp.Slots[fmt.Sprintf("+%d", off)] = iv
			}
		}
		r.Footprint = append(r.Footprint, fp)
	}

	if n := bits.OnesCount64(ctxReads); n > 0 {
		r.CtxReads = make([]string, 0, n)
		for i, f := range layout.Fields {
			if ctxReads&(1<<i) != 0 {
				r.CtxReads = append(r.CtxReads, f.Name)
			}
		}
		sort.Strings(r.CtxReads)
	}

	sort.Slice(r.Warnings, func(i, j int) bool {
		if r.Warnings[i].PC != r.Warnings[j].PC {
			return r.Warnings[i].PC < r.Warnings[j].PC
		}
		return r.Warnings[i].Code < r.Warnings[j].Code
	})
	return r, nil
}

// helperReturn models a helper's return value.
func helperReturn(h policy.HelperID, p *policy.Program, st *absState) absVal {
	switch h {
	case policy.HelperMapLookup:
		if m1 := st.regs[policy.R1]; m1.kind == vMapPtr {
			return absVal{kind: vMapValPtr, mapIdx: m1.mapIdx}
		}
		return scalar(Top)
	case policy.HelperMapUpdate, policy.HelperMapDelete, policy.HelperMapAdd:
		// 0 or errno; errnos are small negatives, keep it simple.
		return scalar(Top)
	case policy.HelperCPU, policy.HelperNUMANode:
		return scalar(Interval{0, 4096}) // topology-bounded identifiers
	case policy.HelperTrace:
		return scalar(Const(0))
	default:
		return scalar(Top)
	}
}

// decisionRange is the meaningful return range per behavioural kind.
func decisionRange(k policy.Kind) (lo, hi int64) {
	if k == policy.KindScheduleWaiter {
		return 0, policy.WaiterParkNow
	}
	return 0, 1 // cmp_node / skip_shuffle are booleans
}

// refineCond narrows the jump operand's interval in the taken and
// fall-through states where the comparison semantics allow it.
func refineCond(in policy.Instruction, taken, fall *absState) {
	dst := taken.regs[in.Dst]
	if dst.kind == vMapValPtr && !in.Op.UsesSrcReg() && in.Imm == 0 {
		// The map_lookup null check: taken/fall split into null scalar
		// and non-null pointer, mirroring the verifier.
		null, nonNull := scalar(Const(0)), absVal{kind: vMapValPtr, mapIdx: dst.mapIdx, off: dst.off}
		switch in.Op {
		case policy.OpJeqImm:
			taken.regs[in.Dst] = null
			fall.regs[in.Dst] = nonNull
		case policy.OpJneImm:
			taken.regs[in.Dst] = nonNull
			fall.regs[in.Dst] = null
		}
		return
	}
	if dst.kind != vScalar || in.Op.UsesSrcReg() {
		return
	}
	iv, imm := dst.iv, in.Imm
	set := func(st *absState, niv Interval) {
		if niv.Lo > niv.Hi {
			// Contradiction: the branch is infeasible under the abstract
			// state; keep the old interval (sound, just less precise).
			return
		}
		st.regs[in.Dst] = scalar(niv)
	}
	switch in.Op {
	case policy.OpJeqImm:
		set(taken, Const(imm))
	case policy.OpJneImm:
		set(fall, Const(imm))
	case policy.OpJsgtImm:
		set(taken, Interval{max64(iv.Lo, imm+1), iv.Hi})
		set(fall, Interval{iv.Lo, min64(iv.Hi, imm)})
	case policy.OpJsgeImm:
		set(taken, Interval{max64(iv.Lo, imm), iv.Hi})
		set(fall, Interval{iv.Lo, min64(iv.Hi, imm-1)})
	case policy.OpJsltImm:
		set(taken, Interval{iv.Lo, min64(iv.Hi, imm-1)})
		set(fall, Interval{max64(iv.Lo, imm), iv.Hi})
	case policy.OpJsleImm:
		set(taken, Interval{iv.Lo, min64(iv.Hi, imm)})
		set(fall, Interval{max64(iv.Lo, imm+1), iv.Hi})
	case policy.OpJgtImm, policy.OpJgeImm, policy.OpJltImm, policy.OpJleImm:
		// Unsigned comparisons agree with signed ones only when both
		// sides are proven non-negative.
		if iv.Lo < 0 || imm < 0 {
			return
		}
		switch in.Op {
		case policy.OpJgtImm:
			set(taken, Interval{max64(iv.Lo, imm+1), iv.Hi})
			set(fall, Interval{iv.Lo, min64(iv.Hi, imm)})
		case policy.OpJgeImm:
			set(taken, Interval{max64(iv.Lo, imm), iv.Hi})
			set(fall, Interval{iv.Lo, min64(iv.Hi, imm-1)})
		case policy.OpJltImm:
			set(taken, Interval{iv.Lo, min64(iv.Hi, imm-1)})
			set(fall, Interval{max64(iv.Lo, imm), iv.Hi})
		case policy.OpJleImm:
			set(taken, Interval{iv.Lo, min64(iv.Hi, imm)})
			set(fall, Interval{max64(iv.Lo, imm+1), iv.Hi})
		}
	}
}

// aluAbstract models one ALU instruction over the interval domain.
func aluAbstract(in policy.Instruction, st *absState) absVal {
	var src absVal
	if in.Op.UsesSrcReg() {
		src = st.regs[in.Src]
	} else {
		src = scalar(Const(in.Imm))
	}
	switch in.Op {
	case policy.OpMovImm:
		return scalar(Const(in.Imm))
	case policy.OpMovReg:
		return src
	}
	dst := st.regs[in.Dst]

	// Pointer arithmetic (the verifier proved the offset is a known
	// constant): track the moving offset.
	if dst.kind == vStackPtr || dst.kind == vCtxPtr || dst.kind == vMapValPtr {
		if src.kind == vScalar && src.iv.IsConst() {
			delta := src.iv.Lo
			if in.Op == policy.OpSubImm || in.Op == policy.OpSubReg {
				delta = -delta
			}
			out := dst
			out.off += delta
			return out
		}
		return absVal{}
	}
	if dst.kind != vScalar || src.kind != vScalar {
		return scalar(Top)
	}
	return scalar(intervalALU(in.Op, dst.iv, src.iv))
}

// intervalALU is the interval transfer function for scalar ALU ops.
// Exact for constant operands (mirroring the VM's uint64 semantics);
// otherwise sound rules are applied for non-negative ranges and top is
// returned when the unsigned/signed mismatch could bite.
func intervalALU(op policy.Op, a, b Interval) Interval {
	if a.IsConst() && b.IsConst() {
		return Const(constALU(op, a.Lo, b.Lo))
	}
	nonneg := a.Lo >= 0 && b.Lo >= 0
	switch op {
	case policy.OpAddImm, policy.OpAddReg:
		lo, okL := addOv(a.Lo, b.Lo)
		hi, okH := addOv(a.Hi, b.Hi)
		if okL && okH {
			return Interval{lo, hi}
		}
	case policy.OpSubImm, policy.OpSubReg:
		if nonneg && a.Lo >= b.Hi {
			// Cannot wrap below zero.
			return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
	case policy.OpMulImm, policy.OpMulReg:
		if nonneg {
			if hi, ok := mulOv(a.Hi, b.Hi); ok {
				return Interval{a.Lo * b.Lo, hi}
			}
		}
	case policy.OpDivImm, policy.OpDivReg:
		if nonneg {
			lo := int64(0)
			if b.IsConst() && b.Lo > 0 {
				lo = a.Lo / b.Lo
			}
			return Interval{lo, a.Hi} // division by zero yields 0
		}
	case policy.OpModImm, policy.OpModReg:
		if nonneg {
			// r < b unless b == 0, in which case r == a.
			return Interval{0, max64(a.Hi, max64(b.Hi-1, 0))}
		}
	case policy.OpAndImm, policy.OpAndReg:
		if nonneg {
			return Interval{0, min64(a.Hi, b.Hi)}
		}
		if b.Lo >= 0 {
			return Interval{0, b.Hi} // mask with non-negative bound
		}
	case policy.OpOrImm, policy.OpOrReg, policy.OpXorImm, policy.OpXorReg:
		if nonneg {
			m := uint64(max64(a.Hi, b.Hi))
			if n := bits.Len64(m); n < 63 {
				return Interval{0, int64(1<<n) - 1}
			}
		}
	case policy.OpLshImm, policy.OpLshReg:
		if nonneg && b.IsConst() {
			s := uint64(b.Lo) & 63
			if s < 63 && a.Hi <= math.MaxInt64>>s {
				return Interval{a.Lo << s, a.Hi << s}
			}
		}
	case policy.OpRshImm, policy.OpRshReg, policy.OpArshImm, policy.OpArshReg:
		if nonneg && b.IsConst() {
			s := uint64(b.Lo) & 63
			return Interval{a.Lo >> s, a.Hi >> s}
		}
	}
	return Top
}

// constALU mirrors the VM's uint64 arithmetic for constant operands.
func constALU(op policy.Op, av, bv int64) int64 {
	a, b := uint64(av), uint64(bv)
	var r uint64
	switch op {
	case policy.OpAddImm, policy.OpAddReg:
		r = a + b
	case policy.OpSubImm, policy.OpSubReg:
		r = a - b
	case policy.OpMulImm, policy.OpMulReg:
		r = a * b
	case policy.OpDivImm, policy.OpDivReg:
		if b == 0 {
			r = 0
		} else {
			r = a / b
		}
	case policy.OpModImm, policy.OpModReg:
		if b == 0 {
			r = a
		} else {
			r = a % b
		}
	case policy.OpAndImm, policy.OpAndReg:
		r = a & b
	case policy.OpOrImm, policy.OpOrReg:
		r = a | b
	case policy.OpXorImm, policy.OpXorReg:
		r = a ^ b
	case policy.OpLshImm, policy.OpLshReg:
		r = a << (b & 63)
	case policy.OpRshImm, policy.OpRshReg:
		r = a >> (b & 63)
	case policy.OpArshImm, policy.OpArshReg:
		r = uint64(int64(a) >> (b & 63))
	case policy.OpNeg:
		r = -a
	default:
		return 0
	}
	return int64(r)
}

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
