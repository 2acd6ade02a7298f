package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// Queue-node pooling: every queue lock needs one node per contended
// acquisition. A kernel MCS lock keeps that node on the acquiring
// thread's stack; in Go the node must outlive the acquiring frame (it
// is published through atomic pointers), so the naive implementation
// heap-allocates per acquire — the hot-path cost this file removes.
//
// Nodes are cached per *task* (see task.TakeNode/PutNode): the task that
// takes a node is always the task that frees it, on its own goroutine,
// so the cache needs no synchronisation, no sync.Pool GC interaction,
// and no cross-CPU traffic. Nodes of one class chain through an
// intrusive free link. Freed nodes may still be *read* by stragglers
// holding stale pointers (an in-flight unpark, a TryLock that loaded
// the old tail); every such field is atomic, and each take resets state
// before the node is republished, so reuse is race-free. Where reuse
// would break an algorithm's correctness argument — CLH TryLock's
// check-then-CAS assumed single-use nodes — the algorithm carries a
// generation stamp to detect it (see clhNode).

// qnodeAllocs counts queue-node heap allocations (pool misses). Pool
// hits are deliberately not counted: a per-acquire shared-counter
// increment is exactly the kind of hot-path cacheline traffic this file
// exists to remove, while misses are rare by construction (first
// acquisition per task per nesting depth) and stop growing in steady
// state — which is the signal the telemetry layer exports.
var qnodeAllocs atomic.Int64

// QnodeAllocs reports cumulative queue-node heap allocations; a flat
// curve in steady state is the pooling health signal.
func QnodeAllocs() int64 { return qnodeAllocs.Load() }

// Node cache classes, one per node type (allocated at init, before any
// task exists).
var (
	mcsNodeClass   = task.AllocNodeClass()
	clhNodeClass   = task.AllocNodeClass()
	qspinNodeClass = task.AllocNodeClass()
	cnaNodeClass   = task.AllocNodeClass()
	shflNodeClass  = task.AllocNodeClass()
	semNodeClass   = task.AllocNodeClass()
)

// --- MCS ---

func takeMCSNode(t *task.T) *mcsNode {
	if v := t.TakeNode(mcsNodeClass); v != nil {
		n := v.(*mcsNode)
		t.PutNode(mcsNodeClass, anyNode(n.free))
		n.free = nil
		n.locked.Store(false)
		n.next.Store(nil)
		return n
	}
	qnodeAllocs.Add(1)
	return &mcsNode{}
}

func putMCSNode(t *task.T, n *mcsNode) {
	n.free, _ = t.TakeNode(mcsNodeClass).(*mcsNode)
	t.PutNode(mcsNodeClass, n)
}

// anyNode converts a possibly-nil typed node pointer to the cache's
// `any` without wrapping a typed nil (which TakeNode callers would
// mistake for a non-empty cache).
func anyNode[N any](n *N) any {
	if n == nil {
		return nil
	}
	return n
}

// --- CLH ---

func takeCLHNode(t *task.T) *clhNode {
	if v := t.TakeNode(clhNodeClass); v != nil {
		n := v.(*clhNode)
		t.PutNode(clhNodeClass, anyNode(n.free))
		n.free = nil
		// Bump the generation so stale observers of the previous
		// life can detect the reuse; the lock bit starts clear.
		n.state.Store((n.state.Load() &^ clhLocked) + clhGenStep)
		return n
	}
	qnodeAllocs.Add(1)
	return &clhNode{}
}

func putCLHNode(t *task.T, n *clhNode) {
	n.free, _ = t.TakeNode(clhNodeClass).(*clhNode)
	t.PutNode(clhNodeClass, n)
}

// --- qspinlock ---

func takeQspinNode(t *task.T) *qspinNode {
	if v := t.TakeNode(qspinNodeClass); v != nil {
		n := v.(*qspinNode)
		t.PutNode(qspinNodeClass, anyNode(n.free))
		n.free = nil
		n.locked.Store(false)
		n.next.Store(nil)
		return n
	}
	qnodeAllocs.Add(1)
	return &qspinNode{}
}

func putQspinNode(t *task.T, n *qspinNode) {
	n.free, _ = t.TakeNode(qspinNodeClass).(*qspinNode)
	t.PutNode(qspinNodeClass, n)
}

// --- CNA ---

func takeCNANode(t *task.T, socket int) *cnaNode {
	if v := t.TakeNode(cnaNodeClass); v != nil {
		n := v.(*cnaNode)
		t.PutNode(cnaNodeClass, anyNode(n.free))
		n.free = nil
		n.socket = socket
		n.locked.Store(false)
		n.next.Store(nil)
		return n
	}
	qnodeAllocs.Add(1)
	return &cnaNode{socket: socket}
}

func putCNANode(t *task.T, n *cnaNode) {
	n.free, _ = t.TakeNode(cnaNodeClass).(*cnaNode)
	t.PutNode(cnaNodeClass, n)
}

// --- ShflLock ---

func takeShflNode(t *task.T, enqueueNS int64) *shflNode {
	if v := t.TakeNode(shflNodeClass); v != nil {
		n := v.(*shflNode)
		t.PutNode(shflNodeClass, anyNode(n.free))
		n.free = nil
		n.Task = t
		n.EnqueueNS = enqueueNS
		n.bypass.Store(0)
		n.status.Store(shflWaiting)
		n.next.Store(nil)
		// A wakeup posted to the node's previous life may still be
		// pending (or in flight — harmless either way, waiters
		// re-check their status); start this life without it.
		n.park.Drain()
		return n
	}
	qnodeAllocs.Add(1)
	n := &shflNode{Waiter: Waiter{Task: t, EnqueueNS: enqueueNS}}
	// The parker channel is allocated exactly once, before the node is
	// ever published, so a waker's Unpark never races a reuse.
	n.park.Init()
	return n
}

func putShflNode(t *task.T, n *shflNode) {
	n.free, _ = t.TakeNode(shflNodeClass).(*shflNode)
	t.PutNode(shflNodeClass, n)
}

// --- RWSem waiters ---

func takeSemWaiter(t *task.T) *semWaiter {
	if v := t.TakeNode(semNodeClass); v != nil {
		w := v.(*semWaiter)
		t.PutNode(semNodeClass, anyNode(w.free))
		w.free = nil
		w.next = nil
		w.granted.Store(false)
		w.parker.Drain()
		return w
	}
	qnodeAllocs.Add(1)
	w := &semWaiter{}
	w.parker.Init()
	return w
}

func putSemWaiter(t *task.T, w *semWaiter) {
	w.free, _ = t.TakeNode(semNodeClass).(*semWaiter)
	t.PutNode(semNodeClass, w)
}
