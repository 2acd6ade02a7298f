// Package jit is the policy runtime's fast tier: it lowers a verified
// cBPF policy program to a decision tree (LowerTree) that is evaluated
// where its inputs live (RunTree) — context words read at their sources,
// map lookups and lock statistics read at their calls, map writes and
// occ_set run as effects in program order. The bytecode interpreter
// (policy.Exec) is the other tier: executable specification, fallback for
// every program outside the tree grammar, and differential reference.
//
// "The eBPF Runtime in the Linux Kernel" carries a general JIT because
// eBPF programs are general. Verified policies are loop-free guarded
// decisions on slow paths, and every shipped one lowers to a tree, so
// there is no third, general-purpose compiled tier (DESIGN §11).
//
// Equivalence with the reference interpreter is an explicit, tested
// contract: identical R0, identical RuntimeError faults (pc and message),
// identical ExecStats deltas (instruction counting included), identical
// map mutations and occ_set requests, and the same fault-injection sites
// firing in the same order. See diff.go, jit_test.go, tree_test.go,
// fuzz_test.go and golden_test.go.
package jit

import (
	"errors"

	"concord/internal/policy"
)

// ErrUnsupported marks a verified program outside the tree grammar. The
// framework keeps such programs on the VM tier; returning it is a tier
// decision, never a correctness problem.
var ErrUnsupported = errors.New("policy jit: lowering unsupported")

// Compile lowers a verified program to a decision tree and returns it in
// the shape of policy.Exec, over a context and an environment:
// observationally identical to the interpreter (same R0, faults, ExecStats
// deltas, map mutations, helper and fault-injection ordering). A program
// outside the tree grammar returns an error wrapping ErrUnsupported and
// stays on the VM tier.
func Compile(p *policy.Program) (policy.CompiledFn, error) {
	t, err := LowerTree(p)
	if err != nil {
		return nil, err
	}
	return treeOverCtx(t, p), nil
}

// MustCompile is Compile for tests and examples.
func MustCompile(p *policy.Program) policy.CompiledFn {
	fn, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return fn
}

// ctxRun is what a tree run over a context reads: the context's words, and
// the environment its map calls take their CPU from and its
// lock_stats_read and occ_set calls go to.
type ctxRun struct {
	ctx *policy.Ctx
	env policy.Env
}

// ctxWord[i] reads word i of a run's context: a tree's sources when its
// words sit in a Ctx rather than in the structures they were marshalled
// from.
var ctxWord = func() (src [maxTreeWords]func(ctxRun) uint64) {
	for i := range src {
		src[i] = func(r ctxRun) uint64 { return r.ctx.Words[i] }
	}
	return src
}()

func ctxCPU(r ctxRun) int { return r.env.CPU() }

// treeOverCtx gives a tree the CompiledFn shape of a run of p: the VM's
// context-kind check, the VM's bounds check by offering only the sources
// the context has words for, and env's CPU and helpers for its calls.
func treeOverCtx(t *Tree, p *policy.Program) policy.CompiledFn {
	return func(ctx *policy.Ctx, env policy.Env) (uint64, error) {
		if env == nil {
			env = policy.DefaultEnv
		}
		if ctx == nil || ctx.Layout.Kind != p.Kind {
			return 0, &policy.RuntimeError{Name: p.Name, PC: -1, Msg: "context kind mismatch"}
		}
		return RunTree(t, p, nil, ctxWord[:min(len(ctx.Words), maxTreeWords)], ctxCPU, env, ctxRun{ctx, env})
	}
}
