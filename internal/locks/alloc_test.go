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

// contendedAllocs drives acquisitions of l through the contended slow
// path and reports allocations and queue-node pool misses per steady-
// state acquisition: a partner goroutine holds the lock until the main
// task's OnContended hook proves it has enqueued (its queue position is
// fixed), then releases. base is the hook table to run under; its
// OnContended is taken over by the harness. Parkers, pooled nodes and
// hook scratch are warmed before measuring.
func contendedAllocs(l Lock, topo *topology.Topology, base Hooks) (allocs float64, misses int64) {
	mt := task.New(topo)
	pt := task.New(topo)

	var queued atomic.Bool
	base.Name = "alloc"
	base.OnContended = func(ev *Event) {
		if ev.Task == mt {
			queued.Store(true)
		}
	}
	l.(Hooked).HookSlot().Replace("alloc", &base)

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
			l.Lock(pt)
			// Deliberate rendezvous: the test must observe the lock
			// held before it queues a contender.
			held <- struct{}{} //vet:ignore blockingunderlock
			for !queued.Load() {
				runtime.Gosched()
			}
			queued.Store(false)
			l.Unlock(pt)
		}
	}()

	op := func() {
		acquire <- struct{}{}
		<-held
		l.Lock(mt) // partner holds: this acquire contends
		l.Unlock(mt)
	}
	for i := 0; i < 3; i++ {
		op()
	}
	before := QnodeAllocs()
	allocs = testing.AllocsPerRun(100, op)
	misses = QnodeAllocs() - before
	close(stop)
	<-done
	return allocs, misses
}

// TestContendedPathZeroAlloc: every pooled lock's contended slow path is
// allocation-free in steady state.
func TestContendedPathZeroAlloc(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range allocRoster(topo) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			allocs, misses := contendedAllocs(tc.l, topo, Hooks{})
			if allocs != 0 {
				t.Errorf("contended Lock/Unlock allocates %.2f/op", allocs)
			}
			if misses != 0 {
				t.Errorf("steady state took %d pool misses", misses)
			}
		})
	}
}

// TestShuffleRoundZeroAlloc: with a shuffling policy attached, every
// contended acquire makes the queue head run a shuffle round and hand the
// policy a ShuffleInfo by address. That context lives in the queue node,
// so the round allocates nothing, even under the pre-compiled
// NUMAHooks() baseline that Figure 2(c) divides by.
func TestShuffleRoundZeroAlloc(t *testing.T) {
	l := NewShflLock("alloc-shuffle")
	allocs, _ := contendedAllocs(l, topology.New(2, 4), *NUMAHooks())
	if rounds, _, _ := l.ShuffleStats(); rounds < 100 {
		t.Fatalf("measured acquires ran %d shuffle rounds, want one each", rounds)
	}
	if allocs != 0 {
		t.Errorf("contended acquire with a shuffle round allocates %.2f/op, want 0", allocs)
	}
}
