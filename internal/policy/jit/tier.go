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
// along with what the JIT tier lowered it to.
type Choice struct {
	Tier   Tier
	Reason string
	// Fn is the compiled closure; nil when Tier is TierVM.
	Fn policy.CompiledFn

	// from is what was lowered and, beside Fn, its tree. A policy keeps
	// its choices in a map for as long as it is loaded; what only attach
	// and reports read sits behind one pointer to keep the map's slots
	// small.
	from *admitted
}

// admitted is the program a Choice was made for — the object, and copies
// of the bytecode and map table it had at admission — and its
// decision-tree lowering: the tree, or the reason it has none.
type admitted struct {
	prog    *policy.Program
	insns   []policy.Instruction
	maps    []policy.Map
	tree    *Tree  // nil: not a tree, and notTree says why
	notTree string // "pc N: <what is outside the tree grammar>"
}

// Lowering names the JIT lowering that serves the program, and why:
// "tree (N compares, M leaves)" for a decision tree (see LowerTree),
// "closures (pc N: <what is outside the tree grammar>)" otherwise. Empty
// when Tier is TierVM.
func (c Choice) Lowering() string {
	switch {
	case c.from == nil:
		return ""
	case c.from.tree != nil:
		return c.from.tree.String()
	}
	return "closures (" + c.from.notTree + ")"
}

// current reports whether p is still what was lowered at admission: the
// same program object with the bytecode and maps it was admitted with.
func (c Choice) current(p *policy.Program) bool {
	a := c.from
	return a != nil && a.prog == p && slices.Equal(a.insns, p.Insns) && slices.Equal(a.maps, p.Maps)
}

// FnFor returns the closure lowered at admission if it is still a
// lowering of p, and nil otherwise (VM tier, or p has been modified
// since), in which case the caller lowers p again or interprets it.
func (c Choice) FnFor(p *policy.Program) policy.CompiledFn {
	if c.Fn == nil || !c.current(p) {
		return nil
	}
	return c.Fn
}

// TreeFor returns the decision tree lowered at admission under the same
// condition as FnFor: nil when the program has none or has been modified
// since, and the caller takes the general path.
func (c Choice) TreeFor(p *policy.Program) *Tree {
	if !c.current(p) {
		return nil
	}
	return c.from.tree
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
	ch := Choice{Tier: TierJIT, Reason: reason, Fn: fn,
		from: &admitted{prog: p, insns: slices.Clone(p.Insns), maps: slices.Clone(p.Maps)}}
	tree, err := LowerTree(p)
	if err != nil {
		ch.from.notTree = err.Error()
	}
	ch.from.tree = tree
	return ch
}
