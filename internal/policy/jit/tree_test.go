package jit_test

import (
	"fmt"
	"strings"
	"testing"

	"concord/internal/faultinject"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
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
			// a store nothing reads back is no node
			return policy.NewBuilder("narrow-stack-store", k).
				StoreStackImm(policy.OpStW, -8, 1).
				ReturnImm(0)
		}, "tree (0 compares, 1 leaves)"},
		{"partial-word-load", func() *policy.Builder {
			return policy.NewBuilder("partial-word-load", k).
				StoreStackImm(policy.OpStDW, -8, 1).
				StoreStackImm(policy.OpStW, -8, 2).
				LoadStack(policy.OpLdxDW, policy.R0, -8).
				Exit()
		}, "closures (pc 2: stack load of a slot not written as a word)"},
		{"map", func() *policy.Builder {
			// a map pointer no call uses is no node either
			b := policy.NewBuilder("map", k)
			return b.LoadMapPtr(policy.R1, policy.NewArrayMap("m", 8, 1)).ReturnImm(0)
		}, "tree (0 compares, 1 leaves)"},
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
// — a program edited after admission is not served it, so Attach takes
// the general path and the edit (or the corruption) reaches the VM. A
// second program with the same bytes is served the same tree, and For
// gives it the same lowering. A tree-served program keeps no closure.
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
	if ch.TreeFor(p) == nil {
		t.Fatal("unmodified program is not served its admission tree")
	}
	if ch.Fn != nil || ch.FnFor(p) != nil {
		t.Error("a tree-served program was lowered to closures too")
	}
	other, err := buildFn(numaShaped)()
	if err != nil {
		t.Fatal(err)
	}
	if ch.TreeFor(other) != ch.TreeFor(p) {
		t.Error("a program with the same bytes is not served the same tree")
	}
	bound, ok := ch.For(other)
	if !ok || bound.TreeFor(other) != ch.TreeFor(p) || bound.Fn != nil {
		t.Errorf("For(same bytes) = %v: want the shared tree and no closure", ok)
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
// machine or scratch — nothing is allocated per run, map calls included:
// a lookup that hits, a lookup that misses and an update that inserts,
// and an add into a per-CPU map.
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
	noCPU := func(*pair) int { return 0 }
	arg := &pair{1, 1}
	if ret, err := jit.RunTree(tree, p, src, noCPU, arg); err != nil || ret != 1 {
		t.Fatalf("RunTree = %d, %v; want 1", ret, err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = jit.RunTree(tree, p, src, noCPU, arg) }); avg != 0 {
		t.Errorf("RunTree allocates %.2f/op, want 0", avg)
	}
	// A word with no source faults like the VM's out-of-bounds load.
	src[l.Slot("shuffler_socket")] = nil
	before := p.Stats().Faults.Load()
	_, err = jit.RunTree(tree, p, src, noCPU, arg)
	if err == nil || !strings.Contains(err.Error(), "pc 1: ctx load out of bounds") {
		t.Errorf("missing source: err = %v, want the load's out-of-bounds fault", err)
	}
	if got := p.Stats().Faults.Load() - before; got != 1 {
		t.Errorf("missing source counted %d faults, want 1", got)
	}

	// The profiling shapes, as the DSL compiles them.
	unit, err := policydsl.CompileAndVerify(profileSrc)
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		lock, wait uint64
		cpu        int
	}
	pl := policy.LayoutFor(policy.KindLockAcquired)
	esrc := make([]func(*event) uint64, len(pl.Fields))
	esrc[pl.Slot("lock_id")] = func(e *event) uint64 { return e.lock }
	esrc[pl.Slot("wait_ns")] = func(e *event) uint64 { return e.wait }
	ecpu := func(e *event) int { return e.cpu }
	lowered := func(name string) (*policy.Program, *jit.Tree) {
		p, _ := unit.Program(name)
		tree, err := jit.LowerTree(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p, tree
	}
	worst, worstTree := lowered("worst")
	worstwait := worst.Maps[0].(*policy.HashMap)
	ev := &event{lock: 7, wait: 100}
	fire := func(p *policy.Program, tree *jit.Tree) {
		if _, err := jit.RunTree(tree, p, esrc, ecpu, ev); err != nil {
			t.Fatal(err)
		}
	}
	fire(worst, worstTree) // miss, insert 100
	ev.wait = 50
	if avg := testing.AllocsPerRun(100, func() { fire(worst, worstTree) }); avg != 0 {
		t.Errorf("lookup hit allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { ev.lock++; fire(worst, worstTree) }); avg != 0 {
		t.Errorf("lookup miss and insert allocates %.2f/op, want 0", avg)
	}
	if n := worstwait.Len(); n != 102 {
		t.Errorf("worstwait holds %d keys, want 102", n)
	}
	if v := worstwait.Lookup([]byte{7, 0, 0, 0, 0, 0, 0, 0}, 0); v == nil || v[0] != 100 {
		t.Errorf("worstwait[7] = %v, want [100]: a smaller wait replaced the worst", v)
	}

	count, countTree := lowered("count")
	contended := count.Maps[0].(*policy.PerCPUArrayMap)
	if avg := testing.AllocsPerRun(100, func() { ev.cpu = (ev.cpu + 1) % 8; fire(count, countTree) }); avg != 0 {
		t.Errorf("per-CPU add allocates %.2f/op, want 0", avg)
	}
	if got := contended.Sum(0); got != 101 {
		t.Errorf("contended sums to %d over the CPUs, want 101", got)
	}
	for cpu := 0; cpu < 8; cpu++ {
		if v := contended.Lookup([]byte{0, 0, 0, 0}, cpu); v == nil || v[0] == 0 {
			t.Errorf("cpu %d counted nothing", cpu)
		}
	}
}

// profileSrc is profile-waits.pol on eight CPUs.
const profileSrc = `
map contended percpu_array(value = 8, entries = 1, cpus = 8);
map worstwait hash(key = 8, value = 8, entries = 512);

policy lock_contended count {
    contended[0] += 1;
    return 0;
}

policy lock_acquired worst {
    if (ctx.wait_ns > worstwait[ctx.lock_id]) {
        worstwait[ctx.lock_id] = ctx.wait_ns;
    }
    return 0;
}
`

// customMap is a Map the tree does not know: it stays on closures.
type customMap struct{ *policy.HashMap }

// TestLowerTreeMaps walks the map half of the tree grammar: lookups as
// sources, updates and adds as effects, keys built from narrow stores, and
// what stops the lowering. Everything runs on the three columns of the
// differential harness, map contents compared.
func TestLowerTreeMaps(t *testing.T) {
	const k = policy.KindLockAcquired
	key := func(b *policy.Builder) *policy.Builder { // ctx.lock_id at fp-8
		return b.LoadCtx(policy.R2, policy.R6, "lock_id").StoreStackReg(policy.OpStxDW, -8, policy.R2)
	}
	call := func(b *policy.Builder, m policy.Map, h policy.HelperID) *policy.Builder {
		return b.LoadMapPtr(policy.R1, m).MovReg(policy.R2, policy.RFP).AddImm(policy.R2, -8).Call(h)
	}
	update := func(b *policy.Builder, m policy.Map) *policy.Builder { // m[fp-8] = ctx.wait_ns
		b.LoadCtx(policy.R3, policy.R6, "wait_ns").StoreStackReg(policy.OpStxDW, -16, policy.R3)
		return b.LoadMapPtr(policy.R1, m).MovReg(policy.R2, policy.RFP).AddImm(policy.R2, -8).
			MovReg(policy.R3, policy.RFP).AddImm(policy.R3, -16).Call(policy.HelperMapUpdate)
	}
	start := func(name string) *policy.Builder { return policy.NewBuilder(name, k).MovReg(policy.R6, policy.R1) }
	cases := []struct {
		name string
		mk   func() *policy.Builder
		want string
	}{
		{"lookup", func() *policy.Builder {
			h := policy.NewHashMap("h", 8, 8, 4)
			b := update(key(start("lookup")), h) // so that some lookups hit
			return call(b, h, policy.HelperMapLookup).
				JmpImm(policy.OpJeqImm, policy.R0, 0, "miss").
				LoadStack(policy.OpLdxDW, policy.R1, -16). // not a map word: a stack reload
				Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0}).
				Exit().
				Label("miss").ReturnImm(9)
		}, "tree (1 compares, 2 leaves, 2 map calls)"},
		{"null-check-jne", func() *policy.Builder {
			h := policy.NewArrayMap("a", 16, 4)
			b := start("null-check-jne").LoadCtx(policy.R2, policy.R6, "cpu").StoreStackReg(policy.OpStxW, -8, policy.R2)
			return call(b, h, policy.HelperMapLookup).
				JmpImm(policy.OpJneImm, policy.R0, 0, "hit").
				ReturnImm(9).
				Label("hit").
				Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0, Off: 8}).
				Exit()
		}, "tree (1 compares, 2 leaves, 1 map calls)"},
		{"narrow-key-add", func() *policy.Builder {
			// count's shape: a 4-byte key stored narrow, a per-CPU add
			m := policy.NewPerCPUArrayMap("pc", 8, 2, 4)
			b := start("narrow-key-add").StoreStackImm(policy.OpStW, -8, 1).MovImm(policy.R3, 5)
			return call(b, m, policy.HelperMapAdd).ReturnImm(0)
		}, "tree (0 compares, 1 leaves, 1 map calls)"},
		{"key-from-two-stores", func() *policy.Builder {
			// an 8-byte key from two 4-byte stores over a word store
			h := policy.NewHashMap("h", 8, 8, 8)
			b := start("key-from-two-stores").
				StoreStackImm(policy.OpStDW, -8, -1).
				LoadCtx(policy.R2, policy.R6, "lock_id").StoreStackReg(policy.OpStxW, -8, policy.R2).
				LoadCtx(policy.R3, policy.R6, "cpu").StoreStackReg(policy.OpStxH, -4, policy.R3).
				MovImm(policy.R3, 1)
			b = call(b, h, policy.HelperMapAdd)
			return call(b, h, policy.HelperMapLookup).
				JmpImm(policy.OpJeqImm, policy.R0, 0, "miss").
				Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0}).
				Exit().
				Label("miss").ReturnImm(9)
		}, "tree (1 compares, 2 leaves, 2 map calls)"},
		{"update-full-map", func() *policy.Builder {
			// two inserts into a one-entry map: the second fails, and the
			// program goes on
			h := policy.NewHashMap("h", 8, 8, 1)
			b := update(key(start("update-full-map")), h)
			b.LoadCtx(policy.R2, policy.R6, "task_id").StoreStackReg(policy.OpStxDW, -8, policy.R2)
			return update(b, h).ReturnImm(0)
		}, "tree (0 compares, 1 leaves, 2 map calls)"},

		{"load-after-write", func() *policy.Builder {
			h := policy.NewHashMap("h", 8, 8, 4)
			b := call(key(start("load-after-write")), h, policy.HelperMapLookup).
				JmpImm(policy.OpJeqImm, policy.R0, 0, "miss").
				MovReg(policy.R7, policy.R0)
			return update(b, h).
				Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R7}).
				Exit().
				Label("miss").ReturnImm(9)
		}, `closures (pc 17: map value load after a write to "h")`},
		{"uses-update-result", func() *policy.Builder {
			return update(key(start("uses-update-result")), policy.NewHashMap("h", 8, 8, 4)).Exit()
		}, "closures (pc 11: uses the result of map_update)"},
		{"delete", func() *policy.Builder {
			return call(key(start("delete")), policy.NewHashMap("h", 8, 8, 4), policy.HelperMapDelete).ReturnImm(0)
		}, "closures (pc 6: calls map_delete)"},
		{"custom-map", func() *policy.Builder {
			return call(key(start("custom-map")), customMap{policy.NewHashMap("c", 8, 8, 4)}, policy.HelperMapLookup).ReturnImm(0)
		}, `closures (pc 3: map "c" is not a built-in kind)`},
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
			vecs := ctxVectors(len(policy.LayoutFor(k).Fields))
			if err := h.Run(append(vecs, vecs...)); err != nil { // twice: the second pass finds what the first stored
				t.Fatal(err)
			}
		})
	}
}
