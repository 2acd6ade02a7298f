package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"concord"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
)

// cmdAnalyze runs the static analyzer over a policy source (.pol, which
// may hold several programs) or a stored program (.json) and prints each
// program's report: cost bound, value ranges, map footprint, safety
// facts and warnings. For DSL sources, warnings are mapped back to
// source lines. With -admit it exits non-zero when any program's cost
// bound exceeds the hook budget — the same check Framework.Attach
// enforces. With -interference it takes two or more policy files and
// reports their pairwise map conflicts instead — the cross-policy check
// Attach runs against already-attached policies.
func cmdAnalyze(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stdout)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON reports")
	budget := fs.Duration("budget", concord.DefaultHookBudget, "hook budget for -admit")
	admit := fs.Bool("admit", false, "fail unless every program's cost bound fits -budget")
	interference := fs.Bool("interference", false, "compare two or more policy files pairwise for shared-map conflicts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interference {
		if fs.NArg() < 2 {
			return fmt.Errorf("analyze: -interference requires at least two policy files")
		}
		return analyzeInterference(fs.Args(), *asJSON, *admit, stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: one policy file required (.pol or .json)")
	}
	path := fs.Arg(0)

	var progs []*policy.Program
	var unit *policydsl.CompiledUnit
	if strings.HasSuffix(path, ".json") {
		prog, err := loadProgram(path)
		if err != nil {
			return err
		}
		progs = []*policy.Program{prog}
	} else {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		unit, err = policydsl.CompileAndVerify(string(src))
		if err != nil {
			return err
		}
		progs = unit.Programs
	}

	var reports []*analysis.Report
	for _, prog := range progs {
		rep, err := analysis.Analyze(prog)
		if err != nil {
			return fmt.Errorf("analyze %q: %w", prog.Name, err)
		}
		reports = append(reports, rep)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for i, rep := range reports {
			fmt.Fprint(stdout, rep.String())
			ch := jit.Choose(progs[i], rep)
			fmt.Fprintf(stdout, "  tier:          %s (%s)\n", ch.Tier, ch.Reason)
			if low := ch.Lowering(); low != "" {
				fmt.Fprintf(stdout, "  lowering:      %s\n", low)
			}
			if unit != nil {
				// Map warning pcs back to DSL source lines.
				for _, w := range rep.Warnings {
					if line := unit.LineFor(rep.Program, w.PC); line > 0 {
						fmt.Fprintf(stdout, "  source:        %s:%d: %s\n", path, line, w.Code)
					}
				}
			}
		}
	}

	if *admit {
		for _, rep := range reports {
			if rep.CostBound > int64(*budget) {
				return fmt.Errorf("analyze: %q cost bound %dns exceeds hook budget %dns",
					rep.Program, rep.CostBound, int64(*budget))
			}
		}
		fmt.Fprintf(stdout, "admission: all %d program(s) within %v hook budget\n", len(reports), *budget)
	}
	return nil
}

// interferencePair is one pairwise comparison in the -interference
// output (stable JSON for goldens and CI).
type interferencePair struct {
	Left      string              `json:"left"`
	Right     string              `json:"right"`
	Conflicts []analysis.Conflict `json:"conflicts"`
}

// analyzeReports compiles/loads one policy file and analyzes every
// program in it.
func analyzeReports(path string) ([]*analysis.Report, error) {
	var progs []*policy.Program
	if strings.HasSuffix(path, ".json") {
		prog, err := loadProgram(path)
		if err != nil {
			return nil, err
		}
		progs = []*policy.Program{prog}
	} else {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		unit, err := policydsl.CompileAndVerify(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		progs = unit.Programs
	}
	var reports []*analysis.Report
	for _, prog := range progs {
		rep, err := analysis.Analyze(prog)
		if err != nil {
			return nil, fmt.Errorf("analyze %q: %w", prog.Name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// analyzeInterference compares every pair of the given policy files and
// reports their shared-map conflicts. With admit set, any blocking
// (write-write) conflict is an error — the concordctl mirror of
// InterferenceReject admission.
func analyzeInterference(paths []string, asJSON, admit bool, stdout io.Writer) error {
	byPath := make(map[string][]*analysis.Report, len(paths))
	for _, p := range paths {
		reports, err := analyzeReports(p)
		if err != nil {
			return err
		}
		byPath[p] = reports
	}

	var pairs []interferencePair
	blocking := 0
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			conflicts := analysis.Interference(byPath[paths[i]], byPath[paths[j]])
			for _, c := range conflicts {
				if c.Blocking() {
					blocking++
				}
			}
			pairs = append(pairs, interferencePair{Left: paths[i], Right: paths[j], Conflicts: conflicts})
		}
	}

	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(pairs); err != nil {
			return err
		}
	} else {
		for _, p := range pairs {
			if len(p.Conflicts) == 0 {
				fmt.Fprintf(stdout, "%s ~ %s: no shared maps\n", p.Left, p.Right)
				continue
			}
			fmt.Fprintf(stdout, "%s ~ %s:\n", p.Left, p.Right)
			for _, c := range p.Conflicts {
				fmt.Fprintf(stdout, "  %s\n", c)
			}
		}
	}
	if admit && blocking > 0 {
		return fmt.Errorf("analyze: %d blocking write-write conflict(s)", blocking)
	}
	return nil
}
