package jit

import (
	"errors"
	"fmt"

	"concord/internal/policy"
)

// DiffHarness runs one program on the reference VM and, when the program
// lowers to a decision tree, on the tree, each against isolated but
// identically-seeded state, and reports the first observable divergence:
// register result, error presence and text, ExecStats deltas (helper calls
// and map ops included), trace sequences, occ_set requests, or final map
// contents. It is the equivalence obligation for admitting a program to
// the JIT tier, used by the unit tests, the golden tests, and FuzzVMvsJIT.
// A program that does not lower runs on the VM column alone.
type DiffHarness struct {
	vmProg   *policy.Program
	treeProg *policy.Program // nil: the program is not a tree
	treeFn   policy.CompiledFn
	vmEnv    *policy.TestEnv
	treeEnv  *policy.TestEnv
	steps    int
}

// NewDiffHarness builds a harness from a program constructor and an env
// constructor. build and mkEnv are called once per column so each gets its
// own map arena, ExecStats and env (shared maps would hide single-tier
// mutation bugs; stateful env pieces such as OCCState advance
// independently but identically).
func NewDiffHarness(build func() (*policy.Program, error), mkEnv func() *policy.TestEnv) (*DiffHarness, error) {
	vmProg, err := build()
	if err != nil {
		return nil, fmt.Errorf("diff: build vm program: %w", err)
	}
	if !vmProg.Verified() {
		return nil, policy.ErrNotVerified
	}
	if mkEnv == nil {
		mkEnv = func() *policy.TestEnv { return &policy.TestEnv{} }
	}
	h := &DiffHarness{vmProg: vmProg, vmEnv: mkEnv()}
	treeProg, err := build()
	if err != nil {
		return nil, fmt.Errorf("diff: build tree program: %w", err)
	}
	if fn, err := Compile(treeProg); err == nil {
		h.treeProg, h.treeFn, h.treeEnv = treeProg, fn, mkEnv()
	} else if !errors.Is(err, ErrUnsupported) {
		return nil, err
	}
	return h, nil
}

// HasTree reports whether the program lowered to a decision tree, i.e.
// whether Step compares two columns rather than running the VM alone.
func (h *DiffHarness) HasTree() bool { return h.treeFn != nil }

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
	vmBefore := snap(h.vmProg)
	vmRet, vmErr := policy.Exec(h.vmProg, mkCtx(h.vmProg.Kind), h.vmEnv)
	vmd := snap(h.vmProg).sub(vmBefore)
	if h.treeFn == nil {
		return nil
	}
	before := snap(h.treeProg)
	ret, err := h.treeFn(mkCtx(h.treeProg.Kind), h.treeEnv)
	d := snap(h.treeProg).sub(before)

	if (vmErr == nil) != (err == nil) {
		return h.diverged("vm err=%v, tree err=%v", vmErr, err)
	}
	if vmErr != nil {
		// Errors embed program name and pc; full-text equality pins
		// fault site and message.
		if vmErr.Error() != err.Error() {
			return h.diverged("vm err %q, tree err %q", vmErr, err)
		}
	} else if vmRet != ret {
		return h.diverged("vm R0=%#x, tree R0=%#x", vmRet, ret)
	}
	// A tree run is a JIT run: the deltas differ in JITRuns alone, which
	// mirrors Runs.
	if d.jitRuns != d.runs {
		return h.diverged("tree counted %d runs, %d of them jit", d.runs, d.jitRuns)
	}
	d.jitRuns = vmd.jitRuns
	if vmd != d {
		return h.diverged("stats delta vm=%+v, tree=%+v", vmd, d)
	}
	vt, tt := h.vmEnv.Traces(), h.treeEnv.Traces()
	if len(vt) != len(tt) {
		return h.diverged("trace count vm=%d, tree=%d", len(vt), len(tt))
	}
	for i := range vt {
		if vt[i] != tt[i] {
			return h.diverged("trace[%d] vm=%#x, tree=%#x", i, vt[i], tt[i])
		}
	}
	if v, t := h.vmEnv.OCCState.Load(), h.treeEnv.OCCState.Load(); v != t {
		return h.diverged("occ_set state vm=%d, tree=%d", v, t)
	}
	return nil
}

// Check compares the final contents of every map with the VM column's.
// Returns the number of maps whose contents could not be dumped (unknown
// Map implementations are skipped, not failed). Both columns' maps come
// from the same build, so one column's kinds are all of them.
func (h *DiffHarness) Check() (unchecked int, err error) {
	for i, vm := range h.vmProg.Maps {
		vd, ok := dumpMap(vm)
		if !ok {
			unchecked++
			continue
		}
		if h.treeProg == nil {
			continue
		}
		td, _ := dumpMap(h.treeProg.Maps[i])
		if len(vd) != len(td) {
			return unchecked, h.diverged("map %q entry count vm=%d, tree=%d", vm.Name(), len(vd), len(td))
		}
		for k, vv := range vd {
			tv, ok := td[k]
			if !ok {
				return unchecked, h.diverged("map %q key %s present only on vm", vm.Name(), k)
			}
			if vv != tv {
				return unchecked, h.diverged("map %q key %s vm=%v, tree=%v", vm.Name(), k, vv, tv)
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
	// prefix names cpu's stripe on a per-CPU map and nothing on a shared one.
	prefix := func(cpus, cpu int) string {
		if cpus == 0 {
			return ""
		}
		return fmt.Sprintf("cpu%d/", cpu)
	}
	switch mm := m.(type) {
	case *policy.ArrayMap:
		var key [4]byte
		for cpu := range max(mm.NumCPUs(), 1) {
			p := prefix(mm.NumCPUs(), cpu)
			for i := 0; i < mm.MaxEntries(); i++ {
				key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				add(p, key[:], mm.Lookup(key[:], cpu))
			}
		}
		return out, true
	case *policy.HashMap:
		for cpu := range max(mm.NumCPUs(), 1) {
			p := prefix(mm.NumCPUs(), cpu)
			mm.Range(cpu, func(key []byte, value []uint64) bool {
				add(p, key, value)
				return true
			})
		}
		return out, true
	}
	return nil, false
}
