package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the names, units, directions and regression
// bounds this program is held to.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWork   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// environment is the fingerprint printed with a full set of runs, so that
// two reports can be told apart by something other than their numbers.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Slices     int     `json:"slices"`
}

func fingerprint(cfg runConfig) environment {
	return environment{
		Commit: gitCommit(cfg.root), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: cfg.threads,
		Seed: cfg.seed, Seconds: cfg.seconds, Slices: measuredSlices,
	}
}

// gitCommit reads HEAD from the .git directory by hand: the benchmark also
// runs from plain checkouts, and starts no process it does not have to.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// runChild runs one workload in a process of its own, the way the driver
// does, and reads back its full report. A workload measured in a fresh
// process has the heap, lock IDs and task IDs it has under the driver;
// one measured fifth in a long-lived process does not.
func runChild(cfg runConfig, workload string, seed uint64, traced, skipProbes bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode, trace := "e2e", "0"
	if traced {
		mode, trace = "trace", "1"
	}
	detail := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%s-seed%d.json", workload, mode, seed))
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, fmt.Sprintf("-skip-probes=%t", skipProbes),
		"-root", cfg.root, "-out", cfg.outDir, "-detail", detail}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (%s): %w", workload, mode, err)
	}
	b, err := os.ReadFile(detail)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	if !r.Correct {
		return &r, fmt.Errorf("%s (%s): %d of %d operations failed: %s", workload, mode, r.Failed, r.Attempted, strings.Join(r.Notes, "; "))
	}
	return &r, nil
}

// runAll is the one command that prints every metric by name: each
// workload untraced and traced, the workload-independent probes once.
func runAll(cfg runConfig) error {
	env := fingerprint(cfg)
	fmt.Printf("environment: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s in %d slices\n",
		env.Commit, env.GoVersion, env.CPUModel, env.NumCPU, env.GOMAXPROCS, env.Seed, env.Seconds, env.Slices)
	var runs []*report
	for i, w := range workloadTable {
		e2e, err := runChild(cfg, w.name, cfg.seed, false, false)
		if err != nil {
			return err
		}
		traced, err := runChild(cfg, w.name, cfg.seed, true, i > 0)
		if err != nil {
			return err
		}
		runs = append(runs, e2e, traced)

		fmt.Printf("\nworkload %s — %s\n", w.name, w.why)
		fmt.Printf("  %d ops attempted, %d failed; tiers: %s\n", e2e.Attempted, e2e.Failed, tierList(e2e.Tiers))
		fmt.Println("  end to end (untraced run)")
		for _, d := range endToEnd {
			printMetric(d, e2e.Metrics[d.name])
		}
		for _, d := range workloadLayer[len(workloadLayer)-2:] { // allocs_per_op, fail_share
			printMetric(d, e2e.Metrics[d.name])
		}
		fmt.Println("  per layer (traced run)")
		for _, d := range workloadLayer {
			printMetric(d, traced.Metrics[d.name])
		}
		for _, n := range append(e2e.Notes, traced.Notes...) {
			fmt.Println("  #", n)
		}
		if i == 0 {
			fmt.Println("\nlayer probes (do not depend on the workload)")
			for _, d := range probeLayer {
				printMetric(d, traced.Metrics[d.name])
			}
		}
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("all-seed%d.json", cfg.seed))
	if err := writeJSON(path, struct {
		Environment environment `json:"environment"`
		Runs        []*report   `json:"runs"`
	}{env, runs}); err != nil {
		return err
	}
	fmt.Println("\nwritten:", path)
	return nil
}

func printMetric(d metricDef, v float64) {
	fmt.Printf("    %-30s %14.6g %-6s (%s is better)\n", d.name, v, d.unit, d.better)
}

func tierList(tiers map[string]string) string {
	if len(tiers) == 0 {
		return "none attached"
	}
	var out []string
	for prog, tier := range tiers {
		out = append(out, prog+"="+tier)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// cell is one end-to-end metric of one workload, measured twice.
type cell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	Agree    bool    `json:"agree"`
}

// compareSets holds two sets of runs of the same code against the bounds
// of BENCHMARK.json: a benchmark whose own repeat differs by more than the
// bound it sets cannot tell a regression from its noise.
func compareSets(s *spec, a, b map[string]*report) []cell {
	var cells []cell
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			c := cell{Workload: w.Name, Metric: m.Name, Bound: m.Bound,
				A: a[w.Name].Metrics[m.Name], B: b[w.Name].Metrics[m.Name]}
			// Either set could have been the parent: the spread is how much
			// worse the worse one is, as a share of the better one.
			better := math.Min(c.A, c.B)
			if m.Better == "higher" {
				better = math.Max(c.A, c.B)
			}
			c.Spread = math.Abs(c.A-c.B) / better
			c.Agree = c.Spread <= c.Bound
			cells = append(cells, c)
		}
	}
	return cells
}

// runSelfcheck measures two full sets of the same code, one after the
// other: every workload once per set, each run in its own process, all on
// the same seed.
func runSelfcheck(cfg runConfig) error {
	s, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = make(map[string]*report)
		for _, w := range s.Workloads {
			if sets[i][w.Name], err = runChild(cfg, w.Name, cfg.seed, false, false); err != nil {
				return err
			}
		}
	}
	cells := compareSets(s, sets[0], sets[1])
	disagree := 0
	fmt.Printf("%-18s %-14s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, c := range cells {
		mark := ""
		if !c.Agree {
			mark = "  DISAGREE"
			disagree++
		}
		fmt.Printf("%-18s %-14s %14.6g %14.6g %8.4f %6.2f%s\n", c.Workload, c.Metric, c.A, c.B, c.Spread, c.Bound, mark)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("selfcheck-seed%d.json", cfg.seed)), cells); err != nil {
		return err
	}
	if disagree != 0 {
		return fmt.Errorf("selfcheck: %d of %d cells differ between two sets of the same code by more than their bound", disagree, len(cells))
	}
	fmt.Printf("selfcheck: all %d cells agree within their bounds\n", len(cells))
	return nil
}
