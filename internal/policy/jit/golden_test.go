package jit_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
)

var update = flag.Bool("update", false, "rewrite golden equivalence records under testdata/golden/")

// goldenVector is one pinned execution: the context words fed in and
// the observable outcome. Both tiers must produce it; the file pins it
// across time.
type goldenVector struct {
	Ctx    []uint64 `json:"ctx"`
	R0     uint64   `json:"r0"`
	Err    string   `json:"err,omitempty"`
	Traces []uint64 `json:"traces,omitempty"`
}

// goldenProgram is the per-program record in a policy's golden file.
type goldenProgram struct {
	Program string `json:"program"`
	Kind    string `json:"kind"`
	Tier    string `json:"tier"`
	Reason  string `json:"reason"`
	// Lowering is "tree (N compares, M leaves)" or "closures (pc N:
	// <what is outside the tree grammar>)": which JIT lowering serves
	// the program, pinned like the tier.
	Lowering string         `json:"lowering"`
	Vectors  []goldenVector `json:"vectors"`
}

// goldenEnv returns the deterministic env used for golden records; both
// tiers and the pinned VM arena get identical fresh copies.
func goldenEnv() *policy.TestEnv {
	e := &policy.TestEnv{CPUID: 2, NUMA: 1, Task: 77, Prio: -3,
		LockStats: map[uint64]uint64{1: 500, 2: 42, 9: 7}}
	e.Now.Store(123456789)
	return e
}

// goldenCtxVectors derives fixed context vectors for a kind: a dense
// pseudo-random fill, a sparse low-value fill, an all-zero vector, and
// a truncated vector that must fault identically on both tiers.
func goldenCtxVectors(k policy.Kind) [][]uint64 {
	n := len(policy.NewCtx(k).Words)
	dense := make([]uint64, n)
	sparse := make([]uint64, n)
	h := uint64(0x9e3779b97f4a7c15)
	for i := range dense {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		dense[i] = h
		sparse[i] = uint64(i % 3)
	}
	vecs := [][]uint64{dense, sparse, make([]uint64, n)}
	if n > 1 {
		vecs = append(vecs, dense[:1])
	}
	return vecs
}

// TestGoldenEquivalence pins, for every shipped policy in policies/,
// (a) the tier the admission heuristic selects and the lowering that
// serves it, and (b) the observable outcome of each program on every
// execution column over fixed context vectors. Divergence between VM, JIT
// and tree fails immediately via the DiffHarness; drift of the pinned
// outcome or tier decision over time shows up as a golden diff — rerun
// with `go test ./internal/policy/jit -run Golden -update` after review.
func TestGoldenEquivalence(t *testing.T) {
	goldenDir(t, filepath.Join("..", "..", "..", "policies"), filepath.Join("testdata", "golden"))
}

// TestGoldenThirdParty does the same for three policies shaped like what
// a user, not this repository, would write — grouping by socket pair, by
// priority band, by vCPU parity. They are the check that the tree grammar
// fits programs, not the six shipped files: each must lower to a tree, or
// its golden names the pc that stops it.
func TestGoldenThirdParty(t *testing.T) {
	dir := filepath.Join("testdata", "thirdparty")
	for name, rec := range goldenDir(t, dir, dir) {
		if !strings.HasPrefix(rec.Lowering, "tree (") {
			t.Errorf("%s: third-party-shaped policy does not lower to a tree: %s", name, rec.Lowering)
		}
	}
}

// goldenDir checks (or with -update rewrites) one golden record per .pol
// file of srcDir, kept in outDir, and returns the records by program.
func goldenDir(t *testing.T, srcDir, outDir string) map[string]goldenProgram {
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("policies dir: %v", err)
	}
	all := map[string]goldenProgram{}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pol") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(outDir, strings.TrimSuffix(e.Name(), ".pol")+".json")
		seen[filepath.Base(golden)] = true
		t.Run(e.Name(), func(t *testing.T) {
			unit, err := policydsl.CompileAndVerify(string(src))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			var records []goldenProgram
			for _, prog := range unit.Programs {
				rec := goldenRecord(t, string(src), prog)
				records = append(records, rec)
				all[e.Name()+"/"+rec.Program] = rec
			}
			sort.Slice(records, func(i, j int) bool { return records[i].Program < records[j].Program })
			got, err := json.MarshalIndent(records, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *update {
				if err := os.MkdirAll(outDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("equivalence record drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, got, want)
			}
		})
	}

	// Stale goldens (a policy was removed or renamed) fail too.
	files, _ := os.ReadDir(outDir)
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".json") && !seen[f.Name()] {
			t.Errorf("stale golden %s: no matching policy source", f.Name())
		}
	}
	return all
}

// goldenRecord runs one program through the differential harness over
// the kind's fixed vectors and captures the pinned outcome from a third
// VM arena (so recording cannot perturb the tiers under comparison).
func goldenRecord(t *testing.T, src string, prog *policy.Program) goldenProgram {
	t.Helper()
	build := func() (*policy.Program, error) {
		unit, err := policydsl.CompileAndVerify(src)
		if err != nil {
			return nil, err
		}
		p, ok := unit.Program(prog.Name)
		if !ok {
			return nil, fmt.Errorf("program %q missing on recompile", prog.Name)
		}
		return p, nil
	}
	h, err := jit.NewDiffHarness(build, goldenEnv)
	if err != nil {
		t.Fatalf("%s: harness: %v", prog.Name, err)
	}

	rep, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatalf("%s: analyze: %v", prog.Name, err)
	}
	ch := jit.Choose(prog, rep)
	if ch.Tier != jit.TierJIT {
		t.Errorf("%s: shipped policy not admitted to the JIT tier: %s (%s)",
			prog.Name, ch.Tier, ch.Reason)
	}

	if lowers := strings.HasPrefix(ch.Lowering(), "tree ("); lowers != h.HasTree() {
		t.Errorf("%s: admission says %q but the harness's tree column is %v",
			prog.Name, ch.Lowering(), h.HasTree())
	}

	rec := goldenProgram{
		Program:  prog.Name,
		Kind:     prog.Kind.String(),
		Tier:     ch.Tier.String(),
		Reason:   ch.Reason,
		Lowering: ch.Lowering(),
	}
	pinProg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	pinEnv := goldenEnv()
	for _, words := range goldenCtxVectors(prog.Kind) {
		if err := h.Step(words); err != nil {
			t.Errorf("%s: %v", prog.Name, err)
		}
		ctx := policy.NewCtx(prog.Kind)
		ctx.Words = append([]uint64(nil), words...)
		before := len(pinEnv.Traces())
		r0, execErr := policy.Exec(pinProg, ctx, pinEnv)
		v := goldenVector{Ctx: words, R0: r0, Traces: pinEnv.Traces()[before:]}
		if execErr != nil {
			v.Err = execErr.Error()
		}
		rec.Vectors = append(rec.Vectors, v)
	}
	if _, err := h.Check(); err != nil {
		t.Errorf("%s: final state: %v", prog.Name, err)
	}
	return rec
}
