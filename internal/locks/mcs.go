package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// --- MCS lock ---

// mcsNode is one waiter's queue entry, drawn from the acquiring task's
// node cache (see pool.go) so the contended path is allocation-free,
// and padded to a cache line so two pooled nodes spinning side by side
// never share one. The free link is owner-goroutine-only; locked and
// next stay atomic because a straggling predecessor may still read a
// freed node.
type mcsNode struct {
	locked atomic.Bool
	next   atomic.Pointer[mcsNode]
	free   *mcsNode
	_      [40]byte // pad the 24 bytes above to a 64-byte line
}

// MCSLock is the classic Mellor-Crummey/Scott queue lock: each waiter
// spins on its own node, so handoff costs a single cacheline transfer.
// This is the structural ancestor of qspinlock and ShflLock (§2.2).
type MCSLock struct {
	hookable
	_    [64]byte // keep the enqueue word off the hookable's line
	tail atomic.Pointer[mcsNode]
	_    [56]byte // enqueuers hammer tail; owner is release-path-only
	// owner holds the queue node of the current lock holder; a kernel
	// MCS keeps it on the holder's stack, here the lock carries it.
	owner atomic.Pointer[mcsNode]
}

// NewMCSLock returns an MCS queue spinlock.
func NewMCSLock(name string) *MCSLock {
	return &MCSLock{hookable: newHookable(name)}
}

// Lock implements Lock.
func (l *MCSLock) Lock(t *task.T) {
	start := l.begin(t, false)
	n := takeMCSNode(t)
	prev := l.tail.Swap(n)
	if prev != nil {
		n.locked.Store(true)
		prev.next.Store(n)
		start = l.contended(t, start, 0, false)
		for i := 0; n.locked.Load(); i++ {
			spinYield(i)
		}
	}
	l.owner.Store(n)
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *MCSLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	n := takeMCSNode(t)
	if !l.tail.CompareAndSwap(nil, n) {
		putMCSNode(t, n)
		return false
	}
	l.owner.Store(n)
	l.acquired(t, start, 0, false)
	return true
}

// Unlock implements Lock.
func (l *MCSLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	n := l.owner.Load()
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			// No successor ever saw n; safe to reuse immediately.
			putMCSNode(t, n)
			return
		}
		// An enqueue is in flight; wait for its next-pointer store.
		for i := 0; ; i++ {
			if next = n.next.Load(); next != nil {
				break
			}
			spinYield(i)
		}
	}
	// After the handoff store the successor spins on its own node and
	// the in-flight enqueuer (if any) has finished writing n.next, so n
	// is private again.
	next.locked.Store(false)
	putMCSNode(t, n)
}

// --- CLH lock ---

// CLH node state word: bit 0 is the lock bit, the remaining bits are a
// generation counter bumped on every reuse from the pool. Single-use
// nodes made "tail was X and X was unlocked" a sound acquisition
// argument; with pooled nodes the tail can ABA back to a recycled X, so
// TryLock revalidates the whole state word (same generation, still
// unlocked) after claiming the tail — see TryLock.
const (
	clhLocked  uint64 = 1
	clhGenStep uint64 = 2
)

// clhNode is a CLH queue entry; waiters spin on their *predecessor's*
// node rather than their own. Padded to a cache line (see mcsNode).
type clhNode struct {
	state atomic.Uint64 // gen<<1 | locked
	free  *clhNode
	_     [48]byte
}

// CLHLock is the Craig/Landin/Hagersten queue lock: implicit queue
// through a swapped tail pointer, spinning on the predecessor's flag.
// Nodes recycle through per-task caches in the textbook CLH manner: the
// acquirer adopts its quiescent predecessor node once the spin ends.
type CLHLock struct {
	hookable
	_    [64]byte
	tail atomic.Pointer[clhNode]
	_    [56]byte
	cur  atomic.Pointer[clhNode] // owner's node, released on unlock
}

// NewCLHLock returns a CLH queue spinlock.
func NewCLHLock(name string) *CLHLock {
	l := &CLHLock{hookable: newHookable(name)}
	l.tail.Store(&clhNode{}) // sentinel: initially unlocked
	return l
}

// Lock implements Lock.
func (l *CLHLock) Lock(t *task.T) {
	start := l.begin(t, false)
	n := takeCLHNode(t)
	n.state.Or(clhLocked)
	prev := l.tail.Swap(n)
	if prev.state.Load()&clhLocked != 0 {
		start = l.contended(t, start, 0, false)
		for i := 0; prev.state.Load()&clhLocked != 0; i++ {
			spinYield(i)
		}
	}
	// prev has drained: its owner released and nobody else will touch
	// it again, so this task adopts it for a later acquisition — the
	// classic CLH node-recycling argument.
	putCLHNode(t, prev)
	l.cur.Store(n)
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *CLHLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	prev := l.tail.Load()
	s0 := prev.state.Load()
	if s0&clhLocked != 0 {
		return false
	}
	n := takeCLHNode(t)
	n.state.Or(clhLocked)
	if !l.tail.CompareAndSwap(prev, n) {
		putCLHNode(t, n)
		return false
	}
	// The CAS proved tail was still prev, but with pooled nodes that is
	// no longer proof prev wasn't recycled and re-enqueued in between
	// (ABA). The generation stamp closes the hole: if prev's state word
	// still reads exactly s0 (same generation, unlocked), prev was
	// quiescent across the window and the acquisition is sound.
	if prev.state.Load() == s0 {
		putCLHNode(t, prev)
		l.cur.Store(n)
		l.acquired(t, start, 0, false)
		return true
	}
	// ABA detected: prev is live in a new life and the lock is actually
	// held. Undo the enqueue if no successor arrived yet.
	if l.tail.CompareAndSwap(n, prev) {
		putCLHNode(t, n)
		return false
	}
	// A successor already queued behind n and spins on it. n cannot be
	// withdrawn, so become a ghost waiter: wait for prev like a normal
	// acquirer (bounded by the holder's critical section — rare², this
	// needs the ABA *and* an enqueue inside the same window), then pass
	// the baton straight through without entering the critical section.
	for i := 0; prev.state.Load()&clhLocked != 0; i++ {
		spinYield(i)
	}
	putCLHNode(t, prev)
	n.state.And(^clhLocked)
	return false
}

// Unlock implements Lock.
func (l *CLHLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	l.cur.Load().state.And(^clhLocked)
}
