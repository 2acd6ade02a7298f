package jit_test

import (
	"fmt"
	"strings"
	"testing"

	"concord/internal/faultinject"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
)

// lowering is what admission reports for p: Choice.Lowering.
func lowering(t *testing.T, p *policy.Program) string {
	t.Helper()
	rep, err := analysis.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return jit.Choose(p, rep).Lowering()
}

// TestLowerTreeGrammar walks the edges of the tree grammar: what lowers,
// with how many compares and leaves, and for what does not, the pc that
// stops it and why. Everything that lowers is then run on all three
// columns of the differential harness — full, boundary, short and empty
// contexts — so each accepted shape is also an equivalence check.
func TestLowerTreeGrammar(t *testing.T) {
	const k = policy.KindCmpNode
	cases := []struct {
		name string
		mk   func() *policy.Builder
		want string
	}{
		{"constant", func() *policy.Builder {
			return policy.NewBuilder("constant", k).ReturnImm(1)
		}, "tree (0 compares, 1 leaves)"},
		{"returns-a-word", func() *policy.Builder {
			return policy.NewBuilder("returns-a-word", k).
				LoadCtx(policy.R0, policy.R1, "batch").Exit()
		}, "tree (0 compares, 1 leaves)"},
		{"two-words", func() *policy.Builder {
			return policy.NewBuilder("two-words", k).
				LoadCtx(policy.R2, policy.R1, "curr_socket").
				LoadCtx(policy.R3, policy.R1, "shuffler_socket").
				JmpReg(policy.OpJeqReg, policy.R2, policy.R3, "same").
				ReturnImm(0).
				Label("same").ReturnImm(1)
		}, "tree (1 compares, 2 leaves)"},
		{"spill-and-shift", func() *policy.Builder {
			// the DSL's shape for curr_cpu >> 2 > 1: through the stack
			return policy.NewBuilder("spill-and-shift", k).
				MovReg(policy.R6, policy.R1).
				LoadCtx(policy.R0, policy.R6, "curr_cpu").
				StoreStackReg(policy.OpStxDW, -24, policy.R0).
				MovImm(policy.R0, 2).
				LoadStack(policy.OpLdxDW, policy.R1, -24).
				MovReg(policy.R2, policy.R0).
				MovReg(policy.R0, policy.R1).
				ALUReg(policy.OpRshReg, policy.R0, policy.R2).
				JmpImm(policy.OpJgtImm, policy.R0, 1, "yes").
				ReturnImm(0).
				Label("yes").ReturnImm(1)
		}, "tree (1 compares, 2 leaves)"},
		{"constant-left-commutative", func() *policy.Builder {
			return policy.NewBuilder("constant-left-commutative", k).
				LoadCtx(policy.R2, policy.R1, "curr_prio").
				MovImm(policy.R3, 3).
				ALUReg(policy.OpAddReg, policy.R3, policy.R2).
				JmpImm(policy.OpJsgtImm, policy.R3, 10, "yes").
				ReturnImm(0).
				Label("yes").ReturnImm(1)
		}, "tree (1 compares, 2 leaves)"},
		{"negated-word", func() *policy.Builder {
			return policy.NewBuilder("negated-word", k).
				LoadCtx(policy.R2, policy.R1, "curr_prio").
				Neg(policy.R2).
				ReturnReg(policy.R2)
		}, "tree (0 compares, 1 leaves)"},
		{"constant-branch-folds", func() *policy.Builder {
			return policy.NewBuilder("constant-branch-folds", k).
				MovImm(policy.R2, 5).
				JmpImm(policy.OpJgtImm, policy.R2, 3, "live").
				LoadCtx(policy.R0, policy.R1, "batch").Exit(). // dead: never a node
				Label("live").ReturnImm(7)
		}, "tree (0 compares, 1 leaves)"},
		{"same-word-twice", func() *policy.Builder {
			// one load node, two compares: a word is read once per run
			return policy.NewBuilder("same-word-twice", k).
				LoadCtx(policy.R2, policy.R1, "curr_wait_ns").
				JmpImm(policy.OpJltImm, policy.R2, 100, "no").
				LoadCtx(policy.R3, policy.R1, "curr_wait_ns").
				JmpImm(policy.OpJgtImm, policy.R3, 200, "no").
				ReturnImm(1).
				Label("no").ReturnImm(0)
		}, "tree (2 compares, 3 leaves)"},

		{"constant-left-noncommutative", func() *policy.Builder {
			return policy.NewBuilder("constant-left-noncommutative", k).
				LoadCtx(policy.R2, policy.R1, "curr_prio").
				MovImm(policy.R3, 100).
				ALUReg(policy.OpSubReg, policy.R3, policy.R2).
				ReturnReg(policy.R3)
		}, "closures (pc 2: constant on the left of a non-commutative operation)"},
		{"two-words-one-op", func() *policy.Builder {
			return policy.NewBuilder("two-words-one-op", k).
				LoadCtx(policy.R2, policy.R1, "curr_prio").
				LoadCtx(policy.R3, policy.R1, "shuffler_prio").
				ALUReg(policy.OpSubReg, policy.R2, policy.R3).
				ReturnReg(policy.R2)
		}, "closures (pc 2: operation on two context words)"},
		{"second-operation", func() *policy.Builder {
			return policy.NewBuilder("second-operation", k).
				LoadCtx(policy.R2, policy.R1, "curr_cpu").
				ALUImm(policy.OpRshImm, policy.R2, 1).
				ALUImm(policy.OpAndImm, policy.R2, 3).
				ReturnReg(policy.R2)
		}, "closures (pc 2: second operation on a derived value)"},
		{"helper", func() *policy.Builder {
			return policy.NewBuilder("helper", k).
				MovImm(policy.R1, 1).
				Call(policy.HelperLockStats).
				Exit()
		}, "closures (pc 1: calls lock_stats_read)"},
		{"narrow-stack-store", func() *policy.Builder {
			return policy.NewBuilder("narrow-stack-store", k).
				StoreStackImm(policy.OpStW, -8, 1).
				ReturnImm(0)
		}, "closures (pc 0: stack store narrower than or not aligned to a word)"},
		{"map", func() *policy.Builder {
			b := policy.NewBuilder("map", k)
			return b.LoadMapPtr(policy.R1, policy.NewArrayMap("m", 8, 1)).ReturnImm(0)
		}, "closures (pc 0: references a map)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := buildFn(tc.mk)
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if got := lowering(t, p); got != tc.want {
				t.Fatalf("lowering = %q, want %q\n%s", got, tc.want, p)
			}
			h, err := jit.NewDiffHarness(build, mkEnv)
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			if h.HasTree() != strings.HasPrefix(tc.want, "tree") {
				t.Fatalf("harness tree column = %v for %q", h.HasTree(), tc.want)
			}
			if err := h.Run(ctxVectors(len(policy.LayoutFor(k).Fields))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLowerTreeNodeBound: per-path execution is bounded by nodes, not by
// luck. A 33-rung ladder on one word is 1 load + 33 compares + 34 leaves;
// it stays on closures and says why. One rung fewer lowers.
func TestLowerTreeNodeBound(t *testing.T) {
	ladder := func(rungs int) func() *policy.Builder {
		return func() *policy.Builder {
			b := policy.NewBuilder("ladder", policy.KindCmpNode).
				LoadCtx(policy.R2, policy.R1, "curr_prio")
			for i := 0; i < rungs; i++ {
				b.JmpImm(policy.OpJeqImm, policy.R2, int64(i), fmt.Sprintf("r%d", i))
			}
			b.ReturnImm(0)
			for i := 0; i < rungs; i++ {
				b.Label(fmt.Sprintf("r%d", i)).ReturnImm(int64(i & 1))
			}
			return b
		}
	}
	small, err := buildFn(ladder(31))()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lowering(t, small), "tree (31 compares, 32 leaves)"; got != want {
		t.Errorf("31 rungs: lowering = %q, want %q", got, want)
	}
	big, err := buildFn(ladder(33))()
	if err != nil {
		t.Fatal(err)
	}
	got := lowering(t, big)
	if !strings.HasPrefix(got, "closures (pc ") || !strings.HasSuffix(got, ": more than 64 tree nodes)") {
		t.Errorf("33 rungs: lowering = %q, want closures for the node bound", got)
	}
	h, err := jit.NewDiffHarness(buildFn(ladder(31)), mkEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(ctxVectors(len(policy.LayoutFor(policy.KindCmpNode).Fields))); err != nil {
		t.Fatal(err)
	}
}

func numaShaped() *policy.Builder {
	return policy.NewBuilder("numa-shaped", policy.KindCmpNode).
		LoadCtx(policy.R2, policy.R1, "curr_socket").
		LoadCtx(policy.R3, policy.R1, "shuffler_socket").
		JmpReg(policy.OpJeqReg, policy.R2, policy.R3, "same").
		ReturnImm(0).
		Label("same").ReturnImm(1)
}

// TestTreeTrapParity: a tree run consults the injected-trap site where
// the other tiers do, with the same error text and the same ExecStats
// deltas (a trapped run is a run and a fault, and executes nothing).
func TestTreeTrapParity(t *testing.T) {
	h, err := jit.NewDiffHarness(buildFn(numaShaped), mkEnv)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasTree() {
		t.Fatal("program did not lower to a tree")
	}
	words := make([]uint64, len(policy.LayoutFor(policy.KindCmpNode).Fields))
	faultinject.PolicyTrap.Arm(faultinject.Config{Probability: 1})
	defer faultinject.PolicyTrap.Disarm()
	if err := h.Step(words); err != nil {
		t.Fatal(err)
	}
	faultinject.PolicyTrap.Disarm()
	if err := h.Step(words); err != nil {
		t.Fatal(err)
	}
}

// TestTreeServedOnlyWhileUnmodified: the tree follows the closure's rule
// — a program edited after admission is served neither, so Attach takes
// the general path and the edit (or the corruption) reaches the VM. A
// second program with the same bytes is served the same tree, and For
// gives it the same lowering with a closure counting into its own stats.
func TestTreeServedOnlyWhileUnmodified(t *testing.T) {
	p, err := buildFn(numaShaped)()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	ch := jit.Choose(p, rep)
	if ch.TreeFor(p) == nil || ch.FnFor(p) == nil {
		t.Fatal("unmodified program is not served its admission lowerings")
	}
	other, err := buildFn(numaShaped)()
	if err != nil {
		t.Fatal(err)
	}
	if ch.TreeFor(other) != ch.TreeFor(p) {
		t.Error("a program with the same bytes is not served the same tree")
	}
	if ch.FnFor(other) != nil {
		t.Error("a different program object is served a closure counting into this program's stats")
	}
	bound, ok := ch.For(other)
	if !ok || bound.TreeFor(other) != ch.TreeFor(p) || bound.FnFor(other) == nil || bound.FnFor(p) != nil {
		t.Errorf("For(same bytes) = %v: want the shared tree and a closure for the new program only", ok)
	}
	renamed, err := buildFn(numaShaped)()
	if err != nil {
		t.Fatal(err)
	}
	renamed.Name += "-renamed"
	if _, ok := ch.For(renamed); ok || ch.TreeFor(renamed) != nil {
		t.Error("a program with another name is served this program's lowering")
	}
	p.Insns[len(p.Insns)-2].Imm = 0
	if ch.TreeFor(p) != nil || ch.FnFor(p) != nil {
		t.Error("edited program is still served an admission lowering")
	}
	if vm := jit.Choose(p, nil); vm.TreeFor(p) != nil || vm.Lowering() != "" {
		t.Errorf("VM-tier choice carries a lowering: %q", vm.Lowering())
	}
}

// TestRunTreeZeroAlloc: evaluating a tree over sources needs no context,
// machine or scratch — nothing is allocated per run.
func TestRunTreeZeroAlloc(t *testing.T) {
	p, err := buildFn(numaShaped)()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jit.LowerTree(p)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ curr, shuffler uint64 }
	l := policy.LayoutFor(policy.KindCmpNode)
	src := make([]func(*pair) uint64, len(l.Fields))
	src[l.Slot("curr_socket")] = func(p *pair) uint64 { return p.curr }
	src[l.Slot("shuffler_socket")] = func(p *pair) uint64 { return p.shuffler }
	arg := &pair{1, 1}
	if ret, err := jit.RunTree(tree, p, src, arg); err != nil || ret != 1 {
		t.Fatalf("RunTree = %d, %v; want 1", ret, err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = jit.RunTree(tree, p, src, arg) }); avg != 0 {
		t.Errorf("RunTree allocates %.2f/op, want 0", avg)
	}
	// A word with no source faults like the VM's out-of-bounds load.
	src[l.Slot("shuffler_socket")] = nil
	before := p.Stats().Faults.Load()
	_, err = jit.RunTree(tree, p, src, arg)
	if err == nil || !strings.Contains(err.Error(), "pc 1: ctx load out of bounds") {
		t.Errorf("missing source: err = %v, want the load's out-of-bounds fault", err)
	}
	if got := p.Stats().Faults.Load() - before; got != 1 {
		t.Errorf("missing source counted %d faults, want 1", got)
	}
}
