package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// QSpinLock state word bits.
const (
	qLocked  uint32 = 1 << 0
	qPending uint32 = 1 << 8
)

// qspinNode is a queued waiter (the MCS tier of the lock), pooled per
// task and padded to a cache line like mcsNode.
type qspinNode struct {
	locked atomic.Bool
	next   atomic.Pointer[qspinNode]
	free   *qspinNode
	_      [40]byte
}

// QSpinLock is the Linux queued spinlock — the "Stock" baseline of
// Figure 2(b): a lock word with a locked byte and a *pending* bit that
// lets the first waiter spin on the word itself (avoiding queue-node
// setup on light contention), backed by an MCS queue for everyone else.
//
// The paper's Stock series is this algorithm in the kernel; the
// simulated counterpart is ksim.SimQspin.
type QSpinLock struct {
	hookable
	_    [64]byte
	val  atomic.Uint32
	_    [60]byte // val (fast path) and tail (queue path) on separate lines
	tail atomic.Pointer[qspinNode]
}

// NewQSpinLock returns a queued spinlock.
func NewQSpinLock(name string) *QSpinLock {
	return &QSpinLock{hookable: newHookable(name)}
}

// Lock implements Lock.
func (l *QSpinLock) Lock(t *task.T) {
	start := l.begin(t, false)
	// Fast path: completely free.
	if l.val.CompareAndSwap(0, qLocked) {
		l.acquired(t, start, 0, false)
		return
	}
	start = l.contended(t, start, 0, false)
	l.slowPath(t)
	l.acquired(t, start, 0, false)
}

func (l *QSpinLock) slowPath(t *task.T) {
	// Pending path: if only the locked bit is set and nobody queues,
	// become the pending waiter and spin on the word.
	for i := 0; ; i++ {
		v := l.val.Load()
		if v == qLocked && l.tail.Load() == nil {
			if l.val.CompareAndSwap(qLocked, qLocked|qPending) {
				// Spin until the holder drops the locked bit, then
				// claim it and clear pending.
				for j := 0; ; j++ {
					v := l.val.Load()
					if v&qLocked == 0 {
						if l.val.CompareAndSwap(v, (v&^qPending)|qLocked) {
							return
						}
					}
					spinYield(j)
				}
			}
			continue
		}
		if v == 0 && l.val.CompareAndSwap(0, qLocked) {
			return // raced to a free lock
		}
		if v&qPending != 0 || l.tail.Load() != nil || i > 2 {
			break // contended beyond pending: join the queue
		}
		spinYield(i)
	}

	// Queue path (MCS).
	n := takeQspinNode(t)
	prev := l.tail.Swap(n)
	if prev != nil {
		n.locked.Store(true)
		prev.next.Store(n)
		for i := 0; n.locked.Load(); i++ {
			spinYield(i)
		}
	}
	// Queue head: wait for both locked and pending to clear, then own.
	for i := 0; ; i++ {
		v := l.val.Load()
		if v&(qLocked|qPending) == 0 {
			if l.val.CompareAndSwap(v, v|qLocked) {
				break
			}
		}
		spinYield(i)
	}
	// Leave the queue, promoting the successor; n is private again once
	// any in-flight enqueuer's next-store has been observed.
	next := n.next.Load()
	if next == nil {
		if !l.tail.CompareAndSwap(n, nil) {
			for i := 0; ; i++ {
				if next = n.next.Load(); next != nil {
					break
				}
				spinYield(i)
			}
		}
	}
	if next != nil {
		next.locked.Store(false)
	}
	putQspinNode(t, n)
}

// TryLock implements Lock.
func (l *QSpinLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	if l.val.CompareAndSwap(0, qLocked) {
		l.acquired(t, start, 0, false)
		return true
	}
	return false
}

// Unlock implements Lock.
func (l *QSpinLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	l.val.And(^qLocked)
}

var (
	_ Lock   = (*QSpinLock)(nil)
	_ Hooked = (*QSpinLock)(nil)
)
