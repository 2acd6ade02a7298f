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
	// Fn is the compiled closure, counting into the ExecStats of the
	// program the choice was made for; nil when Tier is TierVM and when
	// the program is served a decision tree (TreeFor), which needs none.
	Fn policy.CompiledFn

	// from is what was lowered and what it was lowered to, shared by every
	// choice For makes from this one. A policy keeps its choices in a map
	// for as long as it is loaded; what only attach and reports read sits
	// behind one pointer to keep the map's slots small.
	from *admitted
	// stats is what Fn counts into: FnFor serves Fn to that program only.
	stats *policy.ExecStats
}

// admitted is what a Choice was made for — copies of the name, kind,
// bytecode and map table a program had at admission, not the program — and
// its lowering: the decision tree, or the reason there is none and the
// closure body.
type admitted struct {
	name    string
	kind    policy.Kind
	insns   []policy.Instruction
	maps    []policy.Map
	body    *body  // nil for a tree
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

// current reports whether what was lowered at admission is a lowering of
// p: p has the name, kind and bytecode it had, and the same map objects
// (the closures call the maps they were lowered against; a tree was
// checked against their kinds and sized by their keys and values).
func (c Choice) current(p *policy.Program) bool {
	a := c.from
	return a != nil && a.name == p.Name && a.kind == p.Kind &&
		slices.Equal(a.insns, p.Insns) && slices.Equal(a.maps, p.Maps)
}

// FnFor returns the closure lowered at admission if p is the program it
// counts into and is still what was lowered, and nil otherwise (VM tier, a
// tree, another program, or p has been modified since), in which case the
// caller runs the tree, lowers p again or interprets it.
func (c Choice) FnFor(p *policy.Program) policy.CompiledFn {
	if c.Fn == nil || c.stats != p.Stats() || !c.current(p) {
		return nil
	}
	return c.Fn
}

// TreeFor returns the decision tree lowered at admission if it is still a
// lowering of p, and nil when the program has none or has been modified
// since, in which case the caller takes the general path. A tree holds no
// program: the caller runs it as p's (RunTree).
func (c Choice) TreeFor(p *policy.Program) *Tree {
	if !c.current(p) {
		return nil
	}
	return c.from.tree
}

// For returns c's decision for p, sharing c's lowering — its tree, or its
// closure body with a closure of its own that counts into p's ExecStats. It
// reports false when that lowering is not one of p (see current), and the
// caller chooses for p afresh. A VM-tier choice holds no lowering and
// applies to any program. For(nil) is c bound to no program: what a cache
// of lowerings keeps without keeping a program reachable.
func (c Choice) For(p *policy.Program) (Choice, bool) {
	c.Fn, c.stats = nil, nil
	switch {
	case p == nil || c.from == nil:
		return c, true
	case !c.current(p):
		return Choice{}, false
	}
	c.stats = p.Stats()
	if c.from.body != nil {
		c.Fn = c.from.body.bind(c.stats)
	}
	return c, true
}

// Choose picks the execution tier for a verified program using the
// analyzer's report (cost bound, footprint, hot-path facts). The report
// may be nil — e.g. analysis disabled at admission — in which case the
// program conservatively stays on the VM. A JIT-tier program is lowered to
// a decision tree where it can be, and to closures only where it cannot:
// a tree-served program keeps no closure body.
func Choose(p *policy.Program, rep *analysis.Report) Choice {
	if rep == nil {
		return Choice{Tier: TierVM, Reason: "no analysis report (analysis disabled at admission)"}
	}
	if rep.CostBound > MaxJITCostNS {
		return Choice{Tier: TierVM, Reason: fmt.Sprintf(
			"cost bound %dns exceeds jit ceiling %dns", rep.CostBound, int64(MaxJITCostNS))}
	}
	a := &admitted{name: p.Name, kind: p.Kind}
	var err error
	if a.tree, err = LowerTree(p); err != nil {
		a.notTree = err.Error()
		if a.body, err = lowerBody(p); err != nil {
			return Choice{Tier: TierVM, Reason: fmt.Sprintf("lowering unsupported: %v", err)}
		}
	}
	a.insns, a.maps = slices.Clone(p.Insns), slices.Clone(p.Maps)
	reason := fmt.Sprintf("%d insns, cost bound %dns, %d maps pinned", len(p.Insns), rep.CostBound, len(rep.Footprint))
	if !rep.Facts.HotPathClean {
		reason += ", hot path not clean"
	}
	ch, _ := Choice{Tier: TierJIT, Reason: reason, from: a}.For(p)
	return ch
}
