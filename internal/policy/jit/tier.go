package jit

import (
	"fmt"
	"slices"

	"concord/internal/policy"
	"concord/internal/policy/analysis"
)

// Tier identifies a policy program's execution tier.
type Tier uint8

const (
	// TierVM runs the program on the reference bytecode interpreter.
	TierVM Tier = iota
	// TierJIT runs the program as fused Go closures from Compile.
	TierJIT
)

func (t Tier) String() string {
	if t == TierJIT {
		return "jit"
	}
	return "vm"
}

// MaxJITCostNS is the admission ceiling for the JIT tier. Programs with
// a worst-case cost bound above this stay on the interpreter: they are
// not hook-hot-path material, and the VM's per-instruction accounting
// gives better forensics when something that expensive misbehaves.
const MaxJITCostNS = 1_000_000 // 1ms

// Choice records the tier decision made for one program at admission,
// along with the compiled closure when the JIT tier was selected.
type Choice struct {
	Tier   Tier
	Reason string
	// Fn is the compiled closure; nil when Tier is TierVM.
	Fn policy.CompiledFn

	// What Fn was lowered from: the program object, and copies of the
	// bytecode and map table it had at admission (see FnFor).
	prog  *policy.Program
	insns []policy.Instruction
	maps  []policy.Map
}

// FnFor returns the closure lowered at admission if it is still a
// lowering of p — the same program object with the bytecode and maps it
// was admitted with — and nil otherwise (VM tier, or p has been modified
// since), in which case the caller lowers p again or interprets it.
func (c Choice) FnFor(p *policy.Program) policy.CompiledFn {
	if c.Fn == nil || c.prog != p ||
		!slices.Equal(c.insns, p.Insns) || !slices.Equal(c.maps, p.Maps) {
		return nil
	}
	return c.Fn
}

// Choose picks the execution tier for a verified program using the
// analyzer's report (cost bound, footprint, hot-path facts). The report
// may be nil — e.g. analysis disabled at admission — in which case the
// program conservatively stays on the VM.
func Choose(p *policy.Program, rep *analysis.Report) Choice {
	if rep == nil {
		return Choice{Tier: TierVM, Reason: "no analysis report (analysis disabled at admission)"}
	}
	if rep.CostBound > MaxJITCostNS {
		return Choice{Tier: TierVM, Reason: fmt.Sprintf(
			"cost bound %dns exceeds jit ceiling %dns", rep.CostBound, int64(MaxJITCostNS))}
	}
	fn, err := Compile(p)
	if err != nil {
		return Choice{Tier: TierVM, Reason: fmt.Sprintf("lowering unsupported: %v", err)}
	}
	reason := fmt.Sprintf("%d insns, cost bound %dns, %d maps pinned", len(p.Insns), rep.CostBound, len(rep.Footprint))
	if !rep.Facts.HotPathClean {
		reason += ", hot path not clean"
	}
	return Choice{Tier: TierJIT, Reason: reason, Fn: fn,
		prog: p, insns: slices.Clone(p.Insns), maps: slices.Clone(p.Maps)}
}
