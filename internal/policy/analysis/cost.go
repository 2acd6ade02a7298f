package analysis

import "concord/internal/policy"

// The cost model. Units are calibrated so one unit approximates one
// nanosecond of worst-case execution on a modern x86 core running the
// native-compiled program (the interpreter is a small constant factor
// slower; admission budgets absorb it). The absolute scale matters less
// than the invariant the model preserves: costs are upper bounds, so
// the longest-path sum is a true worst-case bound for the loop-free
// programs the verifier admits.
//
// Per-instruction base costs.
const (
	CostALU   int64 = 1 // register ALU, mov, neg
	CostJump  int64 = 1 // ja and conditional jumps
	CostMem   int64 = 2 // stack/ctx/map-value loads and stores
	CostLdMap int64 = 1 // materializing a map reference
	CostExit  int64 = 1
	// CostCallBase is the helper dispatch overhead (argument marshal,
	// indirect call) added to every helper's own cost.
	CostCallBase int64 = 10
)

// HelperCosts is the per-helper worst-case cost, added to CostCallBase
// per call. Map mutation is priced above lookup (bucket locking /
// publication), hashes above arrays, and environment probes near their
// syscall-free implementations. concordvet's helperdrift analyzer
// checks this table stays exhaustive over the HelperID enum.
//
// For map helpers these are the *conservative* costs, charged when the
// analysis cannot tell which map a call targets: an upper bound over
// every row of MapKindHelperCosts.
// When the walk's state pins R1 to a specific map, helperCallCost refines
// the charge from MapKindHelperCosts below.
var HelperCosts = map[policy.HelperID]int64{
	policy.HelperMapLookup: 30,
	policy.HelperMapUpdate: 45,
	policy.HelperMapDelete: 35,
	policy.HelperMapAdd:    20,
	policy.HelperKtimeNS:   20,
	policy.HelperCPU:       5,
	policy.HelperNUMANode:  5,
	policy.HelperTaskID:    5,
	policy.HelperTaskPrio:  5,
	policy.HelperRand:      10,
	policy.HelperTrace:     15,
	policy.HelperLockStats: 12, // two atomic loads + a snapshot field read
	policy.HelperOCCSet:    10, // one mode load + one CAS on the tier state
}

// MapKindCost prices the four map helpers for one concrete map kind. A
// zero field falls back to the conservative HelperCosts row — notably
// Delete on array kinds, which only returns ErrNoDelete but stays
// priced as an upper bound.
type MapKindCost struct {
	Lookup, Update, Delete, Add int64
}

// MapKindHelperCosts refines map-helper costs per concrete map kind.
// Arrays are a bounds check and an index; the lock-free hash kinds pay
// a probe plus seqlock validation on lookup and a bucket lock on
// mutation.
var MapKindHelperCosts = map[string]MapKindCost{
	"array":        {Lookup: 12, Update: 18, Add: 10},
	"percpu_array": {Lookup: 12, Update: 18, Add: 10},
	"hash":         {Lookup: 18, Update: 40, Delete: 30, Add: 14},
	"percpu_hash":  {Lookup: 18, Update: 42, Delete: 30, Add: 12},
}

func (c MapKindCost) forHelper(h policy.HelperID) int64 {
	switch h {
	case policy.HelperMapLookup:
		return c.Lookup
	case policy.HelperMapUpdate:
		return c.Update
	case policy.HelperMapDelete:
		return c.Delete
	case policy.HelperMapAdd:
		return c.Add
	}
	return 0
}

// helperCallCost charges a helper call, refining map-helper costs by
// the concrete kind of the map in R1 when the walk's state knows it.
func helperCallCost(h policy.HelperID, p *policy.Program, st *policy.State) int64 {
	base := HelperCosts[h]
	if h < policy.HelperMapLookup || h > policy.HelperMapAdd {
		return base
	}
	idx, ok := st.MapRef(policy.R1)
	if !ok {
		return base
	}
	if kc := MapKindHelperCosts[policy.MapKindOf(p.Maps[idx])].forHelper(h); kc > 0 {
		return kc
	}
	return base
}

// insnCost is the cost of one non-call instruction.
func insnCost(op policy.Op) int64 {
	switch {
	case op == policy.OpExit:
		return CostExit
	case op.IsJump():
		return CostJump
	case op == policy.OpLoadMapPtr:
		return CostLdMap
	case op.IsLoad() || op.IsStore():
		return CostMem
	default:
		return CostALU
	}
}

// pcCost is one pc's row of the longest-path table. Analyze fills in an
// instruction's own cost and calls (a zero cost marks a pc the walk never
// reached); costBounds then adds the worst path from each pc's
// successors, and the path length.
type pcCost struct {
	cost        int64
	path, calls int
}

// costBounds computes the worst-case cost, the longest instruction
// path, and the maximum helper-call count over all paths from the entry
// of a verified (forward-jump-only, hence DAG) program.
//
// The recurrence runs in reverse pc order: every successor of pc is
// > pc, so costs[pc] can max over already-computed successors — a
// longest-path dynamic program, exact for DAGs.
func costBounds(p *policy.Program, costs []pcCost) (cost int64, path, helpers int) {
	n := len(p.Insns)
	succ := func(to int) pcCost {
		if to >= n {
			return pcCost{}
		}
		return costs[to]
	}
	for pc := n - 1; pc >= 0; pc-- {
		c := &costs[pc]
		if c.cost == 0 {
			continue
		}
		in := p.Insns[pc]
		var next pcCost
		switch {
		case in.Op == policy.OpExit:
		case in.Op == policy.OpJa:
			next = succ(pc + 1 + int(in.Off))
		case in.Op.IsCondJump():
			a, b := succ(pc+1), succ(pc+1+int(in.Off))
			next = pcCost{max(a.cost, b.cost), max(a.path, b.path), max(a.calls, b.calls)}
		default:
			next = succ(pc + 1)
		}
		c.cost += next.cost
		c.path = 1 + next.path
		c.calls += next.calls
	}
	return costs[0].cost, costs[0].path, costs[0].calls
}
