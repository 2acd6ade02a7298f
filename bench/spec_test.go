package main

import (
	"regexp"
	"testing"
)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program saying the
// same thing: same workloads, same metric names, units and directions.
func TestSpecMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloadTable))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadTable[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadTable[i].name)
		}
	}
	same := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(spec), len(defs))
		}
		for i, m := range spec {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
}

// TestSpecMeetsContract checks the limits the driver refuses a
// BENCHMARK.json for, so that a typo fails here and not there.
func TestSpecMeetsContract(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v", s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s = %g", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is outside the contract", m.Unit, m.Name)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("better of %s = %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	// 4 + 22 runs per workload, two builds, 3420 s in all.
	perRun := 1.3*float64(s.RunSeconds) + 4 // warm-up, set-ups, checks, process start
	if total := float64(4+22*len(s.Workloads))*perRun + 2*60; total > 3420 {
		t.Errorf("the driver's %d runs would take about %.0f s, over its 3420 s", 4+22*len(s.Workloads), total)
	}
}

// TestCompareSets checks the rule -selfcheck applies: a cell disagrees when
// the worse of its two readings is worse than the better one by more than
// the bound, whichever set it came from.
func TestCompareSets(t *testing.T) {
	s := &spec{
		Workloads: []specWork{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "rate", Better: "higher", Bound: 0.10},
			{Name: "time", Better: "lower", Bound: 0.10},
		},
	}
	set := func(rate, time float64) map[string]*report {
		return map[string]*report{"w": {Metrics: map[string]float64{"rate": rate, "time": time}}}
	}
	for _, c := range []struct {
		a, b        map[string]*report
		rate, time_ bool
	}{
		{set(100, 100), set(91, 109), true, true},
		{set(100, 100), set(89, 111), false, false},
		{set(89, 111), set(100, 100), false, false},
	} {
		cells := compareSets(s, c.a, c.b)
		if cells[0].Agree != c.rate || cells[1].Agree != c.time_ {
			t.Errorf("compareSets: got %+v, want agree %v %v", cells, c.rate, c.time_)
		}
	}
}
