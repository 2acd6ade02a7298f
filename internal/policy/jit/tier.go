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
	// TierJIT runs the program as the decision tree LowerTree made of it.
	TierJIT
)

func (t Tier) String() string {
	if t == TierJIT {
		return "jit"
	}
	return "vm"
}

// Choice records the tier decision made for one program at admission,
// along with the tree the JIT tier lowered it to.
type Choice struct {
	Tier   Tier
	Reason string

	// from is what was lowered and what it was lowered to, shared by every
	// choice For makes from this one; nil for the VM tier. A policy keeps
	// its choices in a map for as long as it is loaded; what only attach
	// and reports read sits behind one pointer to keep the map's slots
	// small.
	from *admitted
}

// admitted is what a Choice was made for — copies of the name, kind,
// bytecode and map table a program had at admission, not the program — and
// the decision tree it was lowered to.
type admitted struct {
	name  string
	kind  policy.Kind
	insns []policy.Instruction
	maps  []policy.Map
	tree  *Tree
}

// Lowering names the tree that serves the program: "tree (N compares, M
// leaves)", with its helper calls by kind if it makes any (see
// Tree.String). Empty when Tier is TierVM, whose Reason says why.
func (c Choice) Lowering() string {
	if c.from == nil {
		return ""
	}
	return c.from.tree.String()
}

// current reports whether what was lowered at admission is a lowering of
// p: p has the name, kind and bytecode it had, and the same map objects (a
// tree was checked against their kinds and sized by their keys and
// values).
func (c Choice) current(p *policy.Program) bool {
	a := c.from
	return a != nil && a.name == p.Name && a.kind == p.Kind &&
		slices.Equal(a.insns, p.Insns) && slices.Equal(a.maps, p.Maps)
}

// TreeFor returns the decision tree lowered at admission if it is still a
// lowering of p, and nil when the program has none or has been modified
// since, in which case the caller lowers p again or interprets it. A tree
// holds no program: the caller runs it as p's (RunTree).
func (c Choice) TreeFor(p *policy.Program) *Tree {
	if !c.current(p) {
		return nil
	}
	return c.from.tree
}

// For returns c's decision for p, sharing c's tree. It reports false when
// that tree is not a lowering of p (see current), and the caller chooses
// for p afresh. A VM-tier choice holds no lowering and applies to any
// program.
func (c Choice) For(p *policy.Program) (Choice, bool) {
	if c.from != nil && !c.current(p) {
		return Choice{}, false
	}
	return c, true
}

// Choose picks the execution tier for a verified program using the
// analyzer's report (cost bound, footprint, hot-path facts). The report
// may be nil — e.g. analysis disabled at admission — in which case the
// program conservatively stays on the VM. A program the tree grammar
// covers is admitted to the JIT tier as its tree; any other stays on the
// VM, and the reason names the pc that stopped the lowering.
func Choose(p *policy.Program, rep *analysis.Report) Choice {
	if rep == nil {
		return Choice{Tier: TierVM, Reason: "no analysis report (analysis disabled at admission)"}
	}
	tree, err := LowerTree(p)
	if err != nil {
		return Choice{Tier: TierVM, Reason: "not a tree: " + err.Error()}
	}
	reason := fmt.Sprintf("%d insns, cost bound %dns, %d maps pinned", len(p.Insns), rep.CostBound, len(rep.Footprint))
	if !rep.Facts.HotPathClean {
		reason += ", hot path not clean"
	}
	return Choice{Tier: TierJIT, Reason: reason, from: &admitted{name: p.Name, kind: p.Kind,
		insns: slices.Clone(p.Insns), maps: slices.Clone(p.Maps), tree: tree}}
}
