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

// TestOCCReadHeavyValidates is the functional half of the optimistic
// tier's gate (its wall-clock floor, TestOCCReadHeavySpeedup, is built with
// -tags perfgate): on the read-dominated mix a promoted lock stays
// promoted and at least nine reads in ten validate speculatively.
func TestOCCReadHeavyValidates(t *testing.T) {
	l := locks.NewRWSem("occ-gate")
	l.OCCPromote(true)
	cfg := workloads.OCCReadHeavyConfig{Workers: 8, OpsPerWorker: 20_000}
	workloads.RunOCCReadHeavy(l, topology.Paper(), cfg)
	// Each worker runs 512 warm-up ops and then the measured ones; one op
	// in 512 is a writer.
	ops := cfg.Workers * (512 + cfg.OpsPerWorker)
	reads := ops - ops/512
	st := l.OCCStats()
	share := float64(st.Reads) / float64(reads)
	t.Logf("occ_read_heavy: %d of %d reads validated (%.3f), promoted %v", st.Reads, reads, share, st.Promoted)
	if !st.Promoted || share < 0.9 {
		t.Error("want the lock promoted and at least 0.9 of reads validated")
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
