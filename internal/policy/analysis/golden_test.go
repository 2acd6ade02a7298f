package analysis

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"concord/internal/policy"
	"concord/internal/policydsl"
)

var update = flag.Bool("update", false, "rewrite golden analysis reports under testdata/")

// TestGoldenReports pins the analyzer's output for every shipped policy
// in policies/. A cost-model or domain change that shifts any bound,
// interval, footprint or warning shows up as a golden diff — rerun with
// `go test ./internal/policy/analysis -run Golden -update` after
// reviewing the new numbers.
func TestGoldenReports(t *testing.T) {
	dir := filepath.Join("..", "..", "..", "policies")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("policies dir: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pol") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		unit, err := policydsl.CompileAndVerify(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		golden := filepath.Join("testdata", strings.TrimSuffix(e.Name(), ".pol")+".golden.json")
		seen[filepath.Base(golden)] = true
		t.Run(e.Name(), func(t *testing.T) {
			// One golden file per .pol source, covering every program
			// in it, sorted by name for stability.
			var reports []*Report
			for _, prog := range unit.Programs {
				rep, err := Analyze(prog)
				if err != nil {
					t.Fatalf("analyze %q: %v", prog.Name, err)
				}
				reports = append(reports, rep)
			}
			sort.Slice(reports, func(i, j int) bool { return reports[i].Program < reports[j].Program })
			got, err := json.MarshalIndent(reports, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
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
				t.Errorf("analysis report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, got, want)
			}
		})
	}

	// Stale goldens (a policy was removed or renamed) fail too.
	if !*update {
		files, _ := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
		for _, f := range files {
			if filepath.Base(f) == "interference.golden.json" {
				continue // the pairwise matrix, owned by TestGoldenInterference
			}
			if !seen[filepath.Base(f)] {
				t.Errorf("stale golden %s has no matching policy", f)
			}
		}
	}
}

// TestGoldenInterference pins the pairwise interference matrix over
// every shipped policy: which pairs share maps, and how the sharing is
// classified. Today the only sharing is profile-waits → wait-gate
// (read-write feedback through worstwait); a new policy that writes a
// map another policy touches shows up as a golden diff here before it
// ever races at runtime.
func TestGoldenInterference(t *testing.T) {
	dir := filepath.Join("..", "..", "..", "policies")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("policies dir: %v", err)
	}
	var names []string
	byName := map[string][]*Report{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pol") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		unit, err := policydsl.CompileAndVerify(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		var reports []*Report
		for _, prog := range unit.Programs {
			rep, err := Analyze(prog)
			if err != nil {
				t.Fatalf("analyze %q: %v", prog.Name, err)
			}
			reports = append(reports, rep)
		}
		names = append(names, e.Name())
		byName[e.Name()] = reports
	}
	sort.Strings(names)

	type pair struct {
		Left      string     `json:"left"`
		Right     string     `json:"right"`
		Conflicts []Conflict `json:"conflicts"`
	}
	var pairs []pair
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			pairs = append(pairs, pair{
				Left: names[i], Right: names[j],
				Conflicts: Interference(byName[names[i]], byName[names[j]]),
			})
		}
	}
	got, err := json.MarshalIndent(pairs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "interference.golden.json")
	if *update {
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
		t.Errorf("interference matrix drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestAnalyzeAllocsFlatInLength pins Analyze's allocations to the
// report, not the program: over every shipped program, the same program
// behind 256 more instructions (`ja +0`, a jump to the next pc) makes no
// more allocations. Analyze keeps no per-instruction state beyond one
// cost table; the walk's states are the verifier's pooled array.
func TestAnalyzeAllocsFlatInLength(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops puts at random")
	}
	dir := filepath.Join("..", "..", "..", "policies")
	files, err := filepath.Glob(filepath.Join(dir, "*.pol"))
	if err != nil || len(files) == 0 {
		t.Fatalf("policies: %v (%d files)", err, len(files))
	}
	pad := make([]policy.Instruction, 256)
	for i := range pad {
		pad[i] = policy.Instruction{Op: policy.OpJa}
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := policydsl.CompileAndVerify(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, p := range unit.Programs {
			long := &policy.Program{Name: p.Name, Kind: p.Kind, Maps: p.Maps,
				Insns: append(append([]policy.Instruction(nil), pad...), p.Insns...)}
			allocs := func(q *policy.Program) float64 {
				return testing.AllocsPerRun(20, func() {
					if _, err := Analyze(q); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, padded := allocs(p), allocs(long)
			t.Logf("%s/%s: %d insns %.0f allocs, %d insns %.0f allocs",
				filepath.Base(f), p.Name, len(p.Insns), short, len(long.Insns), padded)
			if padded > short {
				t.Errorf("%s/%s: %.0f allocs at %d insns, %.0f at %d: Analyze allocates per instruction",
					filepath.Base(f), p.Name, short, len(p.Insns), padded, len(long.Insns))
			}
		}
	}
}
