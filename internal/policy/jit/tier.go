package jit

import (
	"fmt"

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
// along with the tree the JIT tier lowered it to. It holds for any program
// with the same bytes and maps of the same kinds and sizes: a tree names a
// map by its index in p.Maps and reads only its kind and sizes, and
// RunTree is handed the program whose maps it calls.
type Choice struct {
	Tier   Tier
	Reason string

	tree *Tree // nil for the VM tier
}

// Lowering names the tree that serves the program: "tree (N compares, M
// leaves)", with its helper calls by kind if it makes any (see
// Tree.String). Empty when Tier is TierVM, whose Reason says why.
func (c Choice) Lowering() string {
	if c.tree == nil {
		return ""
	}
	return c.tree.String()
}

// Tree returns the decision tree the program was lowered to at admission,
// nil for the VM tier. A tree holds no program: the caller runs it as the
// admitted program's (RunTree).
func (c Choice) Tree() *Tree { return c.tree }

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
	return Choice{Tier: TierJIT, Reason: reason, tree: tree}
}
