package workloads

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

// OptRWLock is a readers-writer lock carrying the optimistic read tier
// (locks.RWSem, locks.SwitchableRWLock).
type OptRWLock interface {
	locks.RWLock
	OptRead(t *task.T, fn func())
}

// OCCReadHeavyConfig parameterizes RunOCCReadHeavy.
type OCCReadHeavyConfig struct {
	Workers      int
	OpsPerWorker int
	// WriterEvery injects one exclusive full-table update per this many
	// ops per worker (default 512): enough writer traffic that
	// speculation has real invalidations to survive, little enough that
	// the mix stays read-dominated — the profile shape occ-gate.pol
	// promotes on.
	WriterEvery int
	// Slots is the shared table size each read section sums (default
	// 64): long enough that a torn snapshot is possible in principle,
	// which is what sequence validation exists to reject.
	Slots int
	// MeasureAlloc brackets the measured phase with MemStats; the
	// speculative read path must stay at 0 allocs/op.
	MeasureAlloc bool
}

func (c *OCCReadHeavyConfig) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 4096
	}
	if c.WriterEvery <= 0 {
		c.WriterEvery = 512
	}
	if c.Slots <= 0 {
		c.Slots = 64
	}
}

// RunOCCReadHeavy drives a read-dominated mix against one rwsem-class
// lock: each op is either a read section summing a shared table (the
// common case) or an exclusive writer bumping every slot. Reads go
// through OptRead, so the measured throughput depends on the lock's
// optimistic tier: promoted or forced on, validated speculative
// sections bypass the reader path entirely; forced off (OCCOff), every
// read pays the full pessimistic RLock — the ablation pair behind the
// occ_read_heavy speedup floor.
//
// Table slots are word-atomic on both sides because a speculative
// section runs concurrently with the writer by design; sequence
// validation discards torn sums, it does not prevent the race.
func RunOCCReadHeavy(l OptRWLock, topo *topology.Topology, cfg OCCReadHeavyConfig) Result {
	cfg.setDefaults()
	shared := make([]atomic.Uint64, cfg.Slots)

	res := Result{PerTask: make([]int64, cfg.Workers)}
	var warm, measured sync.WaitGroup
	start := make(chan struct{})
	warm.Add(cfg.Workers)
	measured.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			tk := task.New(topo)
			// The read closure is hoisted out of the op loop so the
			// steady state allocates nothing per operation.
			var sum uint64
			read := func() {
				sum = 0
				for s := range shared {
					sum += shared[s].Load()
				}
			}
			var sink uint64
			op := func(i int) {
				if i%cfg.WriterEvery == cfg.WriterEvery-1 {
					l.Lock(tk)
					for s := range shared {
						shared[s].Add(1)
					}
					l.Unlock(tk)
				} else {
					l.OptRead(tk, read)
					sink += sum
				}
			}
			// Warmup settles parker timers and the promotion state
			// before the clock starts.
			for i := 0; i < cfg.WriterEvery; i++ {
				op(i)
			}
			warm.Done()
			<-start
			for i := 0; i < cfg.OpsPerWorker; i++ {
				op(i)
				res.PerTask[w]++
				if i&255 == 255 {
					runtime.Gosched()
				}
			}
			_ = sink
			measured.Done()
		}(w)
	}
	warm.Wait()

	var before, after runtime.MemStats
	if cfg.MeasureAlloc {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	close(start)
	measured.Wait()
	res.Duration = time.Since(t0)
	if cfg.MeasureAlloc {
		runtime.ReadMemStats(&after)
	}
	for _, v := range res.PerTask {
		res.Ops += v
	}
	if cfg.MeasureAlloc && res.Ops > 0 {
		res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
	}
	return res
}
