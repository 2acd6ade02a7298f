package experiments

import (
	"testing"

	"concord/internal/locks"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// runOCCReadHeavy measures the occ_read_heavy workload once with the
// tier forced to the given mode.
func runOCCReadHeavy(mode locks.OCCMode, measureAlloc bool) workloads.Result {
	l := locks.NewRWSem("occ-gate")
	l.OCCSetMode(mode)
	return workloads.RunOCCReadHeavy(l, topology.Paper(), workloads.OCCReadHeavyConfig{
		Workers: 8, OpsPerWorker: 20_000, MeasureAlloc: measureAlloc,
	})
}

// TestOCCReadHeavySpeedup is the acceptance gate for the optimistic
// read tier: on the read-dominated mix, sequence-validated speculation
// must beat the pessimistic read lock by at least 1.5×. Best-of-3 on
// each side absorbs scheduler noise on loaded CI hosts; the real ratio
// is well above the gate.
func TestOCCReadHeavySpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock gate: the race detector's slowdown is not uniform across what is compared")
	}
	best := func(mode locks.OCCMode) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if v := runOCCReadHeavy(mode, false).OpsPerMSec(); v > b {
				b = v
			}
		}
		return b
	}
	off := best(locks.OCCOff)
	on := best(locks.OCCOn)
	if off <= 0 || on <= 0 {
		t.Fatalf("degenerate measurement: off=%.1f on=%.1f", off, on)
	}
	ratio := on / off
	t.Logf("occ_read_heavy: pessimistic=%.0f ops/ms, speculative=%.0f ops/ms, speedup=%.2fx", off, on, ratio)
	if ratio < 1.5 {
		t.Errorf("OCC speedup %.2fx below the 1.5x acceptance floor", ratio)
	}
}

// TestOCCReadHeavyZeroAllocs pins the other half of the contract: the
// speculative read path allocates nothing in steady state. The count is
// a process-wide MemStats delta, so runtime bookkeeping around the op
// loop (the start-channel close, WaitGroup wake-ups) registers a handful
// of mallocs; amortized over 160k ops the read path itself must
// contribute none — the same gate the map-plane pin uses.
func TestOCCReadHeavyZeroAllocs(t *testing.T) {
	if r := runOCCReadHeavy(locks.OCCOn, true); r.AllocsPerOp > 0.01 {
		t.Errorf("speculative read path allocates %.4f/op, want 0", r.AllocsPerOp)
	}
}
