package workloads

import (
	"encoding/binary"
	"errors"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"concord/internal/locks"
	"concord/internal/policy"
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

// churnDeadline bounds one churn run: tens of milliseconds when healthy,
// a few hundred under -race.
const churnDeadline = 30 * time.Second

// TestRunMapResizeChurnGrowable fails rather than hangs: a run past
// churnDeadline reports every goroutine's stack (a writer wedged in a
// resize drain shows as oaTable.drainResize), as the schedfuzz harness
// does on its deadline. The wedged workers are left spinning.
func TestRunMapResizeChurnGrowable(t *testing.T) {
	m := policy.NewGrowableHashMap("churn-g", 8, 8, 256)
	type result struct {
		res Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := RunMapResizeChurn(m, MapChurnConfig{
			Workers: 4, TotalKeys: 1 << 14, LiveWindow: 512, MeasureAlloc: true,
		})
		done <- result{res, err}
	}()
	var res Result
	var err error
	select {
	case r := <-done:
		res, err = r.res, r.err
	case <-time.After(churnDeadline):
		var dump strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&dump, 2)
		t.Fatalf("growable churn still running after %v; goroutines:\n%s", churnDeadline, dump.String())
	}
	if err != nil {
		t.Fatalf("growable churn failed: %v", err)
	}
	if res.Ops != 1<<14 {
		t.Fatalf("ops = %d, want %d", res.Ops, 1<<14)
	}
	// Only resize allocates: a shadow table per epoch, amortized over the
	// churn. 30 runs on a 2-vCPU x86-64 host read 0.0031–0.0038
	// (0.0035–0.0038 in 10 more under -race).
	if res.AllocsPerOp > 0.01 {
		t.Errorf("allocs/op = %.4f, want ≤ 0.01: the churn allocates beyond its resize epochs", res.AllocsPerOp)
	}
	// The most recent key of worker 0 is resident, the oldest deleted.
	var key [8]byte
	last := int64(0) + (res.PerTask[0]-1)*4
	binary.LittleEndian.PutUint64(key[:], uint64(last))
	if m.Lookup(key[:], 0) == nil {
		t.Fatalf("key %d vanished from the live window", last)
	}
	binary.LittleEndian.PutUint64(key[:], 0)
	if m.Lookup(key[:], 0) != nil {
		t.Fatal("key 0 survived its deletion window")
	}
}

func TestRunMapResizeChurnFixedCapacityFills(t *testing.T) {
	// The same churn against a preallocated map is the negative control:
	// the live set alone exceeds capacity, so it must report ErrMapFull
	// rather than quietly dropping keys.
	m := policy.NewHashMap("churn-fixed", 8, 8, 256)
	_, err := RunMapResizeChurn(m, MapChurnConfig{
		Workers: 4, TotalKeys: 1 << 13, LiveWindow: 512,
	})
	if !errors.Is(err, policy.ErrMapFull) {
		t.Fatalf("fixed-capacity churn: err = %v, want ErrMapFull", err)
	}
}
