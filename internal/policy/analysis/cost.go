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
// analysis cannot tell which map a call targets; they match the
// mutex-based locked_hash kind, the most expensive implementation.
// When the abstract state pins R1 to a specific map, costBounds refines
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
// mutation; locked_hash pays the global RWMutex and equals the
// conservative HelperCosts row.
var MapKindHelperCosts = map[string]MapKindCost{
	"array":        {Lookup: 12, Update: 18, Add: 10},
	"percpu_array": {Lookup: 12, Update: 18, Add: 10},
	"hash":         {Lookup: 18, Update: 40, Delete: 30, Add: 14},
	"percpu_hash":  {Lookup: 18, Update: 42, Delete: 30, Add: 12},
	"locked_hash":  {Lookup: 30, Update: 45, Delete: 35, Add: 20},
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
// the concrete kind of the map in R1 when the abstract state knows it.
func helperCallCost(h policy.HelperID, p *policy.Program, st *absState) int64 {
	base := HelperCosts[h]
	if h < policy.HelperMapLookup || h > policy.HelperMapAdd {
		return base
	}
	r1 := st.regs[policy.R1]
	if r1.kind != vMapPtr || r1.mapIdx >= len(p.Maps) {
		return base
	}
	if kc := MapKindHelperCosts[policy.MapKindOf(p.Maps[r1.mapIdx])].forHelper(h); kc > 0 {
		return kc
	}
	return base
}

// insnCost is the cost of one non-call, non-jump instruction.
func insnCost(op policy.Op) int64 {
	switch {
	case op == policy.OpExit:
		return CostExit
	case op == policy.OpLoadMapPtr:
		return CostLdMap
	case op.IsLoad() || op.IsStore():
		return CostMem
	default:
		return CostALU
	}
}

// costBounds computes the worst-case cost, the longest instruction
// path, and the maximum helper-call count over all paths from the entry
// of a verified (forward-jump-only, hence DAG) program. Unreachable
// instructions (states[pc].live == false) contribute nothing.
//
// The recurrence runs in reverse pc order: every successor of pc is
// > pc, so cost[pc] can max over already-computed successors — a
// longest-path dynamic program, exact for DAGs.
func costBounds(p *policy.Program, states []absState) (cost int64, path, helpers int) {
	n := len(p.Insns)
	costs := make([]int64, n)
	paths := make([]int, n)
	calls := make([]int, n)

	for pc := n - 1; pc >= 0; pc-- {
		if !states[pc].live {
			continue
		}
		in := p.Insns[pc]
		succ := func(to int) (int64, int, int) {
			if to >= n {
				return 0, 0, 0
			}
			return costs[to], paths[to], calls[to]
		}
		switch {
		case in.Op == policy.OpExit:
			costs[pc], paths[pc], calls[pc] = CostExit, 1, 0

		case in.Op == policy.OpCall:
			c, pl, hc := succ(pc + 1)
			costs[pc] = CostCallBase + helperCallCost(policy.HelperID(in.Imm), p, &states[pc]) + c
			paths[pc] = 1 + pl
			calls[pc] = 1 + hc

		case in.Op == policy.OpJa:
			c, pl, hc := succ(pc + 1 + int(in.Off))
			costs[pc] = CostJump + c
			paths[pc] = 1 + pl
			calls[pc] = hc

		case in.Op.IsCondJump():
			c1, p1, h1 := succ(pc + 1)
			c2, p2, h2 := succ(pc + 1 + int(in.Off))
			costs[pc] = CostJump + max64(c1, c2)
			if p2 > p1 {
				p1 = p2
			}
			paths[pc] = 1 + p1
			if h2 > h1 {
				h1 = h2
			}
			calls[pc] = h1

		default:
			c, pl, hc := succ(pc + 1)
			costs[pc] = insnCost(in.Op) + c
			paths[pc] = 1 + pl
			calls[pc] = hc
		}
	}
	return costs[0], paths[0], calls[0]
}
