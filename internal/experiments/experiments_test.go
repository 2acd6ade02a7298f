package experiments

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"concord/internal/ksim"
	"concord/internal/topology"
)

// The experiment tests assert the paper's qualitative claims — who wins,
// roughly by how much, where curves flatten — not absolute numbers.

func value(pts []Point, series string, threads int) float64 {
	for _, p := range pts {
		if p.Series == series && p.Threads == threads {
			return p.Value
		}
	}
	return -1
}

func TestFigure2aShape(t *testing.T) {
	pts := Figure2a([]int{1, 10, 80})
	stock1, stock80 := value(pts, "Stock", 1), value(pts, "Stock", 80)
	bravo80 := value(pts, "BRAVO", 80)
	concord80 := value(pts, "Concord-BRAVO", 80)

	// Stock rwsem must not scale across sockets.
	if stock80 > stock1*4 {
		t.Errorf("Stock scaled 1→80: %.0f → %.0f", stock1, stock80)
	}
	// BRAVO must clearly beat Stock at scale (paper: ~an order).
	if bravo80 < stock80*3 {
		t.Errorf("BRAVO %.0f not clearly above Stock %.0f at 80 threads", bravo80, stock80)
	}
	// Concord-BRAVO tracks BRAVO within a few percent.
	if concord80 < bravo80*0.90 || concord80 > bravo80*1.02 {
		t.Errorf("Concord-BRAVO %.0f vs BRAVO %.0f: overhead out of band", concord80, bravo80)
	}
}

func TestFigure2bShape(t *testing.T) {
	pts := Figure2b([]int{1, 10, 80})
	stock80 := value(pts, "Stock", 80)
	shfl80 := value(pts, "ShflLock", 80)
	concord80 := value(pts, "Concord-ShflLock", 80)

	// ShflLock's NUMA batching must clearly beat FIFO qspinlock at 80
	// threads (paper shows roughly 3×).
	if shfl80 < stock80*1.5 {
		t.Errorf("ShflLock %.0f not clearly above Stock %.0f", shfl80, stock80)
	}
	// Concord-ShflLock (real cBPF policy) tracks the pre-compiled lock.
	if concord80 < shfl80*0.85 || concord80 > shfl80*1.02 {
		t.Errorf("Concord-ShflLock %.0f vs ShflLock %.0f out of band", concord80, shfl80)
	}
}

func TestFigure2cSimShape(t *testing.T) {
	pts := Figure2cSim([]int{1, 10, 40, 80})
	for _, p := range pts {
		// Paper: worst-case ~20% slowdown; never faster than baseline by
		// more than noise.
		if p.Value < 0.75 || p.Value > 1.05 {
			t.Errorf("normalized throughput at %d threads = %.3f, want [0.75, 1.05]", p.Threads, p.Value)
		}
	}
}

func TestFigure2cRealSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock gate: the race detector's slowdown is not uniform across what is compared")
	}
	// Real-lock variant at reduced scale (full sweep is the bench's
	// job). Overhead band is loose: a 1-CPU CI host adds noise.
	//
	// Each side of one ratio is a single run of ~0.2 ms, and one park
	// rescue, GC or descheduled vCPU inside it (4-44 ms, a few runs in a
	// hundred) moves that ratio a hundredfold either way. The band is about
	// the locks, not about one run's luck: take the median of interleaved
	// repetitions, which a stall has to hit six times out of eleven, on the
	// same side, to move.
	const reps = 11
	threads := []int{2, 4}
	ratios := make([][]float64, len(threads))
	for r := 0; r < reps; r++ {
		for i, p := range Figure2cReal(threads, 400) {
			ratios[i] = append(ratios[i], p.Value)
		}
	}
	for i, n := range threads {
		sort.Float64s(ratios[i])
		if v := ratios[i][reps/2]; v <= 0.2 || v > 2.5 {
			t.Errorf("normalized throughput at %d threads = %.3f (median of %v) looks broken", n, v, ratios[i])
		}
	}
}

func TestShufflePolicyAblation(t *testing.T) {
	pts := ShufflePolicyAblation(80)
	fifo := value(pts, "fifo", 80)
	numa := value(pts, "numa", 80)
	cbpf := value(pts, "numa-cbpf", 80)
	if numa < fifo*1.3 {
		t.Errorf("NUMA policy %.0f not clearly above FIFO %.0f", numa, fifo)
	}
	// The cBPF policy makes the same decisions: same simulated
	// throughput (shuffling is off the critical path).
	if diff := cbpf/numa - 1; diff < -0.02 || diff > 0.02 {
		t.Errorf("cBPF NUMA %.0f diverges from native NUMA %.0f", cbpf, numa)
	}
}

func TestCBPFNumaCmpDecisions(t *testing.T) {
	cmp := CBPFNumaCmp()
	procAt := func(cpu int) *ksim.Proc {
		return &ksim.Proc{CPU: cpu, Socket: topology.Paper().SocketOf(cpu)}
	}
	same := cmp(procAt(0), procAt(5))   // same socket
	cross := cmp(procAt(0), procAt(15)) // different socket
	if !same || cross {
		t.Errorf("cBPF cmp: same=%v cross=%v, want true/false", same, cross)
	}
}

func TestWriteCSVAndRenderTable(t *testing.T) {
	pts := []Point{
		{"f2b", "Stock", 1, 10}, {"f2b", "Stock", 80, 5},
		{"f2b", "ShflLock", 1, 10}, {"f2b", "ShflLock", 80, 15},
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "f2b,ShflLock,80,15.000") {
		t.Errorf("csv:\n%s", csv.String())
	}
	var tbl bytes.Buffer
	if err := RenderTable(&tbl, pts); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"== f2b ==", "Stock", "ShflLock", "80"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSubversionSim(t *testing.T) {
	fifo := SubversionSim(6, 4, false)
	scl := SubversionSim(6, 4, true)
	if fifo.MiceOps == 0 || scl.MiceOps == 0 {
		t.Fatalf("mice starved: fifo=%+v scl=%+v", fifo, scl)
	}
	// The occupancy policy must cut the mice's mean wait substantially
	// (they overtake queued hogs) without starving the hogs.
	if scl.MiceWaitMean > fifo.MiceWaitMean*0.7 {
		t.Errorf("SCL mice wait %.0fns not clearly below FIFO %.0fns",
			scl.MiceWaitMean, fifo.MiceWaitMean)
	}
	if scl.HogOps == 0 {
		t.Error("hogs starved under SCL")
	}
	if scl.MiceOps < fifo.MiceOps {
		t.Errorf("SCL reduced mice ops: %d < %d", scl.MiceOps, fifo.MiceOps)
	}
}

func TestAMPSim(t *testing.T) {
	fifo := AMPSim(8, 8, false)
	amp := AMPSim(8, 8, true)
	if fifo.Ops == 0 || amp.Ops == 0 {
		t.Fatalf("no progress: fifo=%+v amp=%+v", fifo, amp)
	}
	// The AMP policy must raise total throughput (fast cores drain the
	// lock faster) without starving the little cores.
	if float64(amp.Ops) < float64(fifo.Ops)*1.15 {
		t.Errorf("AMP policy gained too little: %d vs %d ops", amp.Ops, fifo.Ops)
	}
	if amp.LittleStarve {
		t.Error("AMP policy starved a little core despite the bypass budget")
	}
	if amp.BigOps <= amp.LittleOps {
		t.Errorf("AMP policy did not favour big cores: big=%d little=%d", amp.BigOps, amp.LittleOps)
	}
}
