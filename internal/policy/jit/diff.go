package jit

import (
	"fmt"
	"sort"

	"concord/internal/policy"
)

// DiffHarness runs one program on both execution tiers — the reference
// VM and the JIT closure tier — and, when the program lowers to a decision
// tree, on the tree as a third column, each against isolated but
// identically-seeded state, and reports the first observable divergence:
// register result, error presence and text, ExecStats deltas (helper calls
// and map ops included), trace sequences, or final map contents. It is the
// equivalence obligation for admitting the JIT tier, used by the unit
// tests, the golden tests, and FuzzVMvsJIT.
type DiffHarness struct {
	vmProg   *policy.Program
	jitProg  *policy.Program
	treeProg *policy.Program // nil: the program is not a tree
	fn       policy.CompiledFn
	treeFn   policy.CompiledFn
	vmEnv    *policy.TestEnv
	jitEnv   *policy.TestEnv
	treeEnv  *policy.TestEnv
	steps    int
}

// NewDiffHarness builds a harness from a program constructor and an env
// constructor. build and mkEnv are called once per column so each gets its
// own map arena, ExecStats and env (shared maps would hide single-tier
// mutation bugs; stateful env pieces such as Rand and Trace advance
// independently but identically). A tree reads its env's CPU alone.
func NewDiffHarness(build func() (*policy.Program, error), mkEnv func() *policy.TestEnv) (*DiffHarness, error) {
	vmProg, err := build()
	if err != nil {
		return nil, fmt.Errorf("diff: build vm program: %w", err)
	}
	jitProg, err := build()
	if err != nil {
		return nil, fmt.Errorf("diff: build jit program: %w", err)
	}
	if !vmProg.Verified() || !jitProg.Verified() {
		return nil, policy.ErrNotVerified
	}
	fn, err := Compile(jitProg)
	if err != nil {
		return nil, err
	}
	if mkEnv == nil {
		mkEnv = func() *policy.TestEnv { return &policy.TestEnv{} }
	}
	h := &DiffHarness{
		vmProg:  vmProg,
		jitProg: jitProg,
		fn:      fn,
		vmEnv:   mkEnv(),
		jitEnv:  mkEnv(),
	}
	if treeProg, err := build(); err == nil {
		if tree, err := LowerTree(treeProg); err == nil {
			h.treeProg, h.treeFn, h.treeEnv = treeProg, treeOverCtx(tree, treeProg), mkEnv()
		}
	}
	return h, nil
}

// HasTree reports whether the program lowered to a decision tree, i.e.
// whether Step compares three columns rather than two.
func (h *DiffHarness) HasTree() bool { return h.treeFn != nil }

// ctxWord[i] reads word i of a context: a tree's sources when its words
// sit in a Ctx rather than in the structures they were marshalled from.
var ctxWord = func() (src [maxTreeWords]func(*policy.Ctx) uint64) {
	for i := range src {
		src[i] = func(c *policy.Ctx) uint64 { return c.Words[i] }
	}
	return src
}()

// treeOverCtx gives a tree the CompiledFn shape of a run of p: the same
// context-kind check as the other tiers, the VM's bounds check by offering
// only the sources the context has words for, and env's CPU for its map
// calls.
func treeOverCtx(t *Tree, p *policy.Program) policy.CompiledFn {
	return func(ctx *policy.Ctx, env policy.Env) (uint64, error) {
		if env == nil {
			env = policy.DefaultEnv
		}
		if ctx == nil || ctx.Layout.Kind != p.Kind {
			return 0, &policy.RuntimeError{Name: p.Name, PC: -1, Msg: "context kind mismatch"}
		}
		cpu := func(*policy.Ctx) int { return env.CPU() }
		return RunTree(t, p, ctxWord[:min(len(ctx.Words), maxTreeWords)], cpu, ctx)
	}
}

// Divergence describes how the two tiers disagreed.
type Divergence struct {
	Step int
	What string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("tier divergence at step %d: %s", d.Step, d.What)
}

func (h *DiffHarness) diverged(format string, args ...any) *Divergence {
	return &Divergence{Step: h.steps, What: fmt.Sprintf(format, args...)}
}

type statSnap struct {
	runs, jitRuns, insns, helpers, mapOps, faults int64
}

func snap(p *policy.Program) statSnap {
	st := p.Stats()
	return statSnap{
		runs:    st.Runs.Load(),
		jitRuns: st.JITRuns.Load(),
		insns:   st.Insns.Load(),
		helpers: st.HelperCalls.Load(),
		mapOps:  st.MapOps.Load(),
		faults:  st.Faults.Load(),
	}
}

func (s statSnap) sub(o statSnap) statSnap {
	return statSnap{s.runs - o.runs, s.jitRuns - o.jitRuns, s.insns - o.insns,
		s.helpers - o.helpers, s.mapOps - o.mapOps, s.faults - o.faults}
}

// Step executes every column on a context built from ctxWords (copied per
// column; any length is allowed — short or long slices exercise the ctx
// bounds checks) and compares every observable. A non-nil error is a
// *Divergence.
func (h *DiffHarness) Step(ctxWords []uint64) error {
	h.steps++
	mkCtx := func(kind policy.Kind) *policy.Ctx {
		c := policy.NewCtx(kind)
		c.Words = append([]uint64(nil), ctxWords...)
		return c
	}
	vmBefore, jitBefore := snap(h.vmProg), snap(h.jitProg)
	vmRet, vmErr := policy.Exec(h.vmProg, mkCtx(h.vmProg.Kind), h.vmEnv)
	jitRet, jitErr := h.fn(mkCtx(h.jitProg.Kind), h.jitEnv)
	vmd := snap(h.vmProg).sub(vmBefore)
	jitd := snap(h.jitProg).sub(jitBefore)

	// against compares one JIT-tier column with the VM's. A JIT run is a
	// run: the deltas differ in JITRuns alone, which mirrors Runs.
	against := func(col string, ret uint64, err error, d statSnap) error {
		if (vmErr == nil) != (err == nil) {
			return h.diverged("vm err=%v, %s err=%v", vmErr, col, err)
		}
		if vmErr != nil {
			// Errors embed program name and pc; full-text equality pins
			// fault site and message.
			if vmErr.Error() != err.Error() {
				return h.diverged("vm err %q, %s err %q", vmErr, col, err)
			}
		} else if vmRet != ret {
			return h.diverged("vm R0=%#x, %s R0=%#x", vmRet, col, ret)
		}
		if d.jitRuns != d.runs {
			return h.diverged("%s counted %d runs, %d of them jit", col, d.runs, d.jitRuns)
		}
		d.jitRuns = vmd.jitRuns
		if vmd != d {
			return h.diverged("stats delta vm=%+v, %s=%+v", vmd, col, d)
		}
		return nil
	}
	if err := against("jit", jitRet, jitErr, jitd); err != nil {
		return err
	}
	if h.treeFn != nil {
		before := snap(h.treeProg)
		ret, err := h.treeFn(mkCtx(h.treeProg.Kind), h.treeEnv)
		if err := against("tree", ret, err, snap(h.treeProg).sub(before)); err != nil {
			return err
		}
	}
	vt, jt := h.vmEnv.Traces(), h.jitEnv.Traces()
	if len(vt) != len(jt) {
		return h.diverged("trace count vm=%d, jit=%d", len(vt), len(jt))
	}
	for i := range vt {
		if vt[i] != jt[i] {
			return h.diverged("trace[%d] vm=%#x, jit=%#x", i, vt[i], jt[i])
		}
	}
	return nil
}

// Check compares the final contents of every map with the VM column's.
// Returns the number of maps whose contents could not be dumped (unknown
// Map implementations are skipped, not failed). Every column's maps come
// from the same build, so one column's kinds are all of them.
func (h *DiffHarness) Check() (unchecked int, err error) {
	cols := []struct {
		name string
		p    *policy.Program
	}{{"jit", h.jitProg}, {"tree", h.treeProg}}
	for i, vm := range h.vmProg.Maps {
		vd, ok := dumpMap(vm)
		if !ok {
			unchecked++
			continue
		}
		for _, col := range cols {
			if col.p == nil {
				continue
			}
			cd, _ := dumpMap(col.p.Maps[i])
			if len(vd) != len(cd) {
				return unchecked, h.diverged("map %q entry count vm=%d, %s=%d", vm.Name(), len(vd), col.name, len(cd))
			}
			for k, vv := range vd {
				cv, ok := cd[k]
				if !ok {
					return unchecked, h.diverged("map %q key %s present only on vm", vm.Name(), k)
				}
				if vv != cv {
					return unchecked, h.diverged("map %q key %s vm=%v, %s=%v", vm.Name(), k, vv, col.name, cv)
				}
			}
		}
	}
	return unchecked, nil
}

// Run is Step over a list of context vectors followed by Check.
func (h *DiffHarness) Run(vectors [][]uint64) error {
	for _, v := range vectors {
		if err := h.Step(v); err != nil {
			return err
		}
	}
	_, err := h.Check()
	return err
}

// dumpMap flattens a map's contents to key-string -> value-string for
// comparison. Keys are prefixed with the cpu for per-CPU kinds so the
// dump is one flat namespace.
func dumpMap(m policy.Map) (map[string]string, bool) {
	out := make(map[string]string)
	add := func(prefix string, key []byte, val []uint64) {
		// Skip all-zero values: array kinds are dense and a zeroed
		// slot is indistinguishable from never-written; hash kinds
		// never surface unwritten slots, but a program can store an
		// explicit zero — treat it as equal to absent on both sides.
		zero := true
		for _, v := range val {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			return
		}
		out[fmt.Sprintf("%s%x", prefix, key)] = fmt.Sprint(val)
	}
	switch mm := m.(type) {
	case *policy.ArrayMap:
		var key [4]byte
		for i := 0; i < mm.MaxEntries(); i++ {
			key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			if v := mm.At(i); v != nil {
				add("", key[:], append([]uint64(nil), v...))
			}
		}
		return out, true
	case *policy.PerCPUArrayMap:
		var key [4]byte
		for cpu := 0; cpu < mm.NumCPUs(); cpu++ {
			for i := 0; i < mm.MaxEntries(); i++ {
				key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				if v := mm.Lookup(key[:], cpu); v != nil {
					add(fmt.Sprintf("cpu%d/", cpu), key[:], append([]uint64(nil), v...))
				}
			}
		}
		return out, true
	case *policy.HashMap:
		mm.Range(func(key []byte, value []uint64) bool {
			add("", key, append([]uint64(nil), value...))
			return true
		})
		return out, true
	case *policy.LockedHashMap:
		mm.Range(func(key []byte, value []uint64) bool {
			add("", key, append([]uint64(nil), value...))
			return true
		})
		return out, true
	case *policy.PerCPUHashMap:
		for cpu := 0; cpu < mm.NumCPUs(); cpu++ {
			prefix := fmt.Sprintf("cpu%d/", cpu)
			mm.Range(cpu, func(key []byte, value []uint64) bool {
				add(prefix, key, append([]uint64(nil), value...))
				return true
			})
		}
		return out, true
	}
	return nil, false
}

// sortedKeys is a debugging aid for divergence reports.
func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
