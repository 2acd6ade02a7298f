package locks

import (
	"runtime"
	"sync/atomic"
	"testing"

	"concord/internal/task"
	"concord/internal/topology"
)

// Zero-alloc assertions for the lock hot paths: after queue-node
// pooling, neither the uncontended fast path nor the contended slow
// path of any pooled lock may allocate in steady state. The first
// acquisition per task legitimately allocates (a pool miss) — each
// measurement warms up first.

func allocRoster(topo *topology.Topology) []struct {
	name string
	l    Lock
} {
	return []struct {
		name string
		l    Lock
	}{
		{"mcs", NewMCSLock("alloc-mcs")},
		{"clh", NewCLHLock("alloc-clh")},
		{"qspin", NewQSpinLock("alloc-qspin")},
		{"cna", NewCNALock("alloc-cna", 0, 0)},
		{"shfl", NewShflLock("alloc-shfl")},
		{"shfl-block", NewShflLock("alloc-shflb", WithBlocking(true), WithSpinBudget(0))},
		{"rwsem-w", NewRWSem("alloc-rwsem")},
	}
}

func TestFastPathZeroAlloc(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range allocRoster(topo) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tk := task.New(topo)
			op := func() {
				tc.l.Lock(tk)
				tc.l.Unlock(tk)
			}
			op() // warmup: pool miss + lazily-allocated scratch
			if avg := testing.AllocsPerRun(200, op); avg != 0 {
				t.Errorf("uncontended Lock/Unlock allocates %.2f/op", avg)
			}
		})
	}
}

// TestContendedPathZeroAlloc drives every measured acquisition through
// the contended slow path: a partner goroutine holds the lock until the
// main task's OnContended hook proves it has enqueued (its queue
// position is fixed), then releases. Parkers and pooled nodes are
// warmed before measuring.
func TestContendedPathZeroAlloc(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range allocRoster(topo) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mt := task.New(topo)
			pt := task.New(topo)

			var queued atomic.Bool
			tc.l.(Hooked).HookSlot().Replace("alloc", &Hooks{
				Name: "alloc",
				OnContended: func(ev *Event) {
					if ev.Task == mt {
						queued.Store(true)
					}
				},
			})

			acquire := make(chan struct{})
			stop := make(chan struct{})
			held := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					case <-acquire:
					}
					tc.l.Lock(pt)
					// Deliberate rendezvous: the test must observe the lock
					// held before it queues a contender.
					held <- struct{}{} //vet:ignore blockingunderlock
					for !queued.Load() {
						runtime.Gosched()
					}
					queued.Store(false)
					tc.l.Unlock(pt)
				}
			}()

			op := func() {
				acquire <- struct{}{}
				<-held
				tc.l.Lock(mt) // partner holds: this acquire contends
				tc.l.Unlock(mt)
			}
			for i := 0; i < 3; i++ {
				op() // warmup: nodes, parker timers, hook scratch
			}
			before := QnodeAllocs()
			if avg := testing.AllocsPerRun(100, op); avg != 0 {
				t.Errorf("contended Lock/Unlock allocates %.2f/op", avg)
			}
			if misses := QnodeAllocs() - before; misses != 0 {
				t.Errorf("steady state took %d pool misses", misses)
			}
			close(stop)
			<-done
		})
	}
}
