package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"concord/internal/ksim"
	"concord/internal/policy"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_cells.golden.json")

// simCell is one deterministic ksim cell: a simulated lock on a
// simulated workload at a simulated core count, in ops per virtual ms.
type simCell struct {
	Lock       string  `json:"lock"`
	Workload   string  `json:"workload"`
	Threads    int     `json:"threads"`
	OpsPerMSec float64 `json:"ops_per_msec"`
}

// simCells runs the six simulated series at 8, 16 and 80 cores: the
// stock locks, ShflLock under the native NUMA comparison, and ShflLock
// under the cBPF comparators (plain and map-profiled), which execute the
// verified policy on every shuffler examination.
func simCells() []simCell {
	c := ksim.DefaultCosts()
	cbpf := CBPFNumaCmp()
	cbpfProf := CBPFProfiledNumaCmp(policy.NewHashMap("bench-exams", 8, 8, 16))
	series := []struct {
		lock, workload string
		w              ksim.Workload
		mk             func(e *ksim.Engine) ksim.SimLock
	}{
		{"sim-qspin", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimQspin(e, c) }},
		{"sim-shfl", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, nativeNumaCmp, 0) }},
		{"sim-shfl-cbpf", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, cbpf, c.DispatchNS) }},
		{"sim-shfl-cbpf-prof", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, cbpfProf, c.DispatchNS) }},
		{"sim-rwsem", "page_fault2", pageFault2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimRWSem(e, c) }},
		{"sim-bravo", "page_fault2", pageFault2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimBRAVO(e, c, 0) }},
	}
	var cells []simCell
	for _, s := range series {
		for _, n := range []int{8, 16, 80} {
			cells = append(cells, simCell{s.lock, s.workload, n, simPoint(s.mk, s.w, n)})
		}
	}
	return cells
}

// TestSimCellsGolden pins the simulator's behaviour exactly: ksim runs
// are seeded discrete-event simulations, so any difference from the
// record is a change in the simulated algorithms or in the decisions of
// the policies they run, never noise. Rerun with
// `go test ./internal/experiments -run SimCellsGolden -update` after
// review.
func TestSimCellsGolden(t *testing.T) {
	got := simCells()
	path := filepath.Join("testdata", "sim_cells.golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	var want []simCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			t.Errorf("%s %s at %d cores: %v ops/ms, golden %s %s at %d cores: %v",
				g.Lock, g.Workload, g.Threads, g.OpsPerMSec, w.Lock, w.Workload, w.Threads, w.OpsPerMSec)
		}
	}
}
