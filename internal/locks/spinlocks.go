package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// --- Test-and-set lock ---

// TASLock is the simplest spinlock: a single test-and-set word that every
// waiter hammers. It is the "non-scalable lock" of Boyd-Wickizer et al.
// and the baseline the queue locks improve on.
type TASLock struct {
	hookable
	state atomic.Int32
}

// NewTASLock returns a test-and-set spinlock.
func NewTASLock(name string) *TASLock {
	return &TASLock{hookable: newHookable(name)}
}

// Lock implements Lock.
func (l *TASLock) Lock(t *task.T) {
	start := l.begin(t, false)
	if l.state.CompareAndSwap(0, 1) {
		l.acquired(t, start, 0, false)
		return
	}
	start = l.contended(t, start, 0, false)
	for i := 0; !l.state.CompareAndSwap(0, 1); i++ {
		spinYield(i)
	}
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *TASLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	if l.state.CompareAndSwap(0, 1) {
		l.acquired(t, start, 0, false)
		return true
	}
	return false
}

// Unlock implements Lock.
func (l *TASLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	l.state.Store(0)
}

// --- Test-and-test-and-set lock ---

// TTASLock spins on a plain load and only attempts the atomic exchange
// when the lock looks free, cutting cacheline write traffic versus TAS.
type TTASLock struct {
	hookable
	state atomic.Int32
}

// NewTTASLock returns a test-and-test-and-set spinlock.
func NewTTASLock(name string) *TTASLock {
	return &TTASLock{hookable: newHookable(name)}
}

// Lock implements Lock.
func (l *TTASLock) Lock(t *task.T) {
	start := l.begin(t, false)
	if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
		l.acquired(t, start, 0, false)
		return
	}
	start = l.contended(t, start, 0, false)
	for i := 0; ; i++ {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			break
		}
		spinYield(i)
	}
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *TTASLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
		l.acquired(t, start, 0, false)
		return true
	}
	return false
}

// Unlock implements Lock.
func (l *TTASLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	l.state.Store(0)
}

// --- Ticket lock ---

// TicketLock grants the lock in strict FIFO order via a next/owner ticket
// pair — fair, but every waiter spins on the shared owner word.
type TicketLock struct {
	hookable
	next  atomic.Uint64
	owner atomic.Uint64
}

// NewTicketLock returns a ticket spinlock.
func NewTicketLock(name string) *TicketLock {
	return &TicketLock{hookable: newHookable(name)}
}

// Lock implements Lock.
func (l *TicketLock) Lock(t *task.T) {
	start := l.begin(t, false)
	ticket := l.next.Add(1) - 1
	if l.owner.Load() != ticket {
		start = l.contended(t, start, 0, false)
		for i := 0; l.owner.Load() != ticket; i++ {
			spinYield(i)
		}
	}
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *TicketLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	// The lock is free iff owner == next; reserving ticket `cur` with a
	// CAS on next can only succeed while that still holds, making the
	// caller the owner immediately.
	cur := l.owner.Load()
	if l.next.CompareAndSwap(cur, cur+1) {
		l.acquired(t, start, 0, false)
		return true
	}
	return false
}

// Unlock implements Lock.
func (l *TicketLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	l.owner.Add(1)
}

// Interface conformance checks.
var (
	_ Lock   = (*TASLock)(nil)
	_ Lock   = (*TTASLock)(nil)
	_ Lock   = (*TicketLock)(nil)
	_ Hooked = (*TASLock)(nil)
)
