package workloads

import (
	"testing"

	"concord/internal/locks"
)

func TestRunOCCReadHeavySpeculates(t *testing.T) {
	l := locks.NewRWSem("occ-wl")
	l.OCCSetMode(locks.OCCOn)
	res := RunOCCReadHeavy(l, topo(), OCCReadHeavyConfig{
		Workers: 4, OpsPerWorker: 2048, WriterEvery: 128,
	})
	if res.Ops != 4*2048 {
		t.Fatalf("ops = %d, want %d", res.Ops, 4*2048)
	}
	st := l.OCCStats()
	if st.Reads == 0 {
		t.Fatalf("forced-on lock never validated a speculative read: %+v", st)
	}
}

func TestRunOCCReadHeavyAblation(t *testing.T) {
	l := locks.NewRWSem("occ-wl-off")
	l.OCCSetMode(locks.OCCOff)
	res := RunOCCReadHeavy(l, topo(), OCCReadHeavyConfig{
		Workers: 4, OpsPerWorker: 1024, WriterEvery: 128,
	})
	if res.Ops != 4*1024 {
		t.Fatalf("ops = %d, want %d", res.Ops, 4*1024)
	}
	if st := l.OCCStats(); st.Reads != 0 || st.Aborts != 0 {
		t.Fatalf("forced-off lock speculated: %+v", st)
	}
}
