// Package analysis is Concord's static-analysis layer over verified
// policy programs: it turns the verifier's qualitative proof ("this
// program is safe to run") into quantitative, proven-before-attach facts
// ("this program costs at most N ns, touches these maps, and returns a
// value in [0,2]").
//
// It keeps no abstract state of its own. The verifier's walk
// (policy.Walk) is the one abstract interpreter over the bytecode: it
// tracks every register's type and, for a scalar, a signed interval, and
// the intervals of 8-byte stack slots, refining both on conditional
// jumps. Every jump is forward, so the CFG is a DAG, each instruction runs
// at most once, and each pc's state is final when the walk reaches it.
// Analyze answers its queries from those per-pc states, per program:
//
//   - the return and exit-register intervals, joined over every exit,
//     and the interval of values each written map slot can hold;
//   - a worst-case cost bound: the maximum, over all CFG paths, of the
//     summed instruction and helper costs (see cost.go), a longest-path
//     computation over the DAG, exact with respect to the cost model;
//   - a map-footprint summary: which maps are touched, read vs write,
//     and how many key/value bytes each access can reach, and the context
//     fields read;
//   - lock-safety facts and warnings: determinism, read-onlyness,
//     debug/rand helpers flagged in hot (decision) hooks, and decision
//     return values proven in range.
//
// The Report is machine-readable (stable JSON) and is consumed by
// internal/core for admission control and watchdog budgeting, recorded
// on the livepatch attachment, and surfaced by `concordctl analyze`.
package analysis

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"concord/internal/policy"
)

// Interval is the verifier's value-range fact: the value is proven to lie
// in [Lo, Hi]. It renders as "top", a constant, or "[lo,hi]" in JSON.
type Interval = policy.Interval

// Top is the interval carrying no information.
var Top = policy.Top

// Const returns the singleton interval {v}.
func Const(v int64) Interval { return policy.Const(v) }

// MapFootprint summarises a program's use of one referenced map.
type MapFootprint struct {
	Map string `json:"map"`
	// Kind is the concrete map kind ("array", "hash", "percpu_hash",
	// ...); the cost model charges each kind its own helper costs.
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

	// Verify is what the walk the report was read from proved, as
	// policy.Verify returns it: an Analyze is the program's verification.
	Verify policy.VerifyStats `json:"-"`
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

// Analyze runs the verifier's walk over p and answers the report's
// queries from each live pc's state. A program that fails verification
// gets the verifier's error (analysis facts are only sound for verified
// programs); one that passes is marked verified, as by policy.Verify, and
// its report carries the VerifyStats that Verify would have returned.
func Analyze(p *policy.Program) (*Report, error) {
	r := &Report{
		Program: p.Name,
		Kind:    p.Kind.String(),
		Insns:   len(p.Insns),
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
	touchKey := func(idx int) {
		accs[idx].maxKey = max(accs[idx].maxKey, p.Maps[idx].KeySize())
	}
	touchVal := func(idx int, hi int64) {
		accs[idx].maxVal = max(accs[idx].maxVal, int(hi))
	}
	writeSlot := func(idx int, off int64, iv Interval) {
		acc := &accs[idx]
		if acc.slots == nil {
			acc.slots = make(map[int64]Interval)
		}
		if cur, ok := acc.slots[off]; ok {
			iv = cur.Join(iv)
		}
		acc.slots[off] = iv
	}

	hot := !p.Kind.IsProfiling()
	layout := policy.LayoutFor(p.Kind)
	var ctxReads uint64 // by slot; layouts have well under 64 fields
	// exit joins each register's interval over the reachable exits; ok is
	// false once some exit holds anything but a scalar there.
	var exit [policy.RFP]struct {
		iv Interval
		ok bool
	}
	exits := 0
	costs := make([]pcCost, len(p.Insns))

	stats, err := policy.Walk(p, func(pc int, st *policy.State) {
		in := p.Insns[pc]
		op := in.Op
		costs[pc].cost = insnCost(op)

		switch {
		case op == policy.OpExit:
			for reg := range exit {
				iv, ok := st.Scalar(policy.Reg(reg))
				if e := &exit[reg]; exits == 0 {
					e.iv, e.ok = iv, ok
				} else {
					e.iv, e.ok = e.iv.Join(iv), e.ok && ok
				}
			}
			exits++

		case op == policy.OpCall:
			h := policy.HelperID(in.Imm)
			costs[pc].cost = CostCallBase + helperCallCost(h, p, st)
			costs[pc].calls = 1
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

			// Map helpers: the verifier proved R1 is a map reference and
			// the stack buffers are sized; here we only account.
			idx, ok := st.MapRef(policy.R1)
			if !ok {
				break
			}
			switch h {
			case policy.HelperMapLookup:
				accs[idx].reads++
				touchKey(idx)
			case policy.HelperMapDelete:
				accs[idx].writes++
				r.Facts.ReadOnly = false
				touchKey(idx)
			case policy.HelperMapAdd:
				accs[idx].writes++
				r.Facts.ReadOnly = false
				touchKey(idx)
				touchVal(idx, 8)
				writeSlot(idx, 0, Top) // accumulator: unbounded over runs
			case policy.HelperMapUpdate:
				accs[idx].writes++
				r.Facts.ReadOnly = false
				touchKey(idx)
				vs := int64(p.Maps[idx].ValueSize())
				touchVal(idx, vs)
				// The written value is the stack buffer at R3.
				buf, _ := st.StackOffset(policy.R3)
				for o := int64(0); o < vs; o += 8 {
					writeSlot(idx, o, st.StackSlot(buf+o))
				}
			}

		case op.IsLoad():
			if off, ok := st.CtxOffset(in.Src); ok {
				if f, ok := layout.FieldAt(int(off) + int(in.Off)); ok {
					ctxReads |= 1 << (f.Off / 8)
				}
			} else if idx, off, ok := st.MapValue(in.Src); ok {
				accs[idx].reads++
				touchVal(idx, off+int64(in.Off)+int64(op.AccessSize()))
			}

		case op.IsStore():
			if idx, off, ok := st.MapValue(in.Dst); ok {
				val := Const(in.Imm)
				if op.UsesSrcReg() {
					val, _ = st.Scalar(in.Src) // the verifier proved it scalar
				}
				r.Facts.ReadOnly = false
				accs[idx].writes++
				off += int64(in.Off)
				touchVal(idx, off+int64(op.AccessSize()))
				writeSlot(idx, off, val)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: program must pass verification: %w", err)
	}
	r.Verify = stats

	// Exit-state register facts. The verifier proved R0 a scalar at every
	// exit.
	r.Return = exit[policy.R0].iv
	for reg, e := range exit {
		if e.ok && !e.iv.IsTop() {
			if r.Registers == nil {
				r.Registers = make(map[string]Interval)
			}
			r.Registers[policy.Reg(reg).String()] = e.iv
		}
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
	r.CostBound, r.LongestPath, r.MaxHelperCalls = costBounds(p, costs)

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

// decisionRange is the meaningful return range per behavioural kind.
func decisionRange(k policy.Kind) (lo, hi int64) {
	if k == policy.KindScheduleWaiter {
		return 0, policy.WaiterParkNow
	}
	return 0, 1 // cmp_node / skip_shuffle are booleans
}
