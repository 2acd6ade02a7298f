package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// ShflRWLock is the readers-writer companion of ShflLock: writers order
// themselves through an embedded ShflLock (and are therefore subject to
// the same shuffling policies), readers use a shared counter gated by a
// writer-intent flag. This is the shape of the kernel's ShflLock-based
// rwsem; the non-blocking configuration corresponds to rwlock, so
// toggling the embedded lock's blocking mode is the rwsem↔rwlock switch
// of §3.1.1 scenario (iii).
type ShflRWLock struct {
	// The writer queue's hookable: both sides are one lock to policies
	// and profilers — one ID and held-mask bit, one hook slot (so one
	// Concord patch governs both), one clock, one safety state.
	*hookable
	w       *ShflLock
	readers atomic.Int64
	wflag   atomic.Int32
}

// NewShflRWLock returns a readers-writer shuffling lock; opts configure
// the embedded writer ShflLock.
func NewShflRWLock(name string, opts ...ShflOption) *ShflRWLock {
	w := NewShflLock(name, opts...)
	return &ShflRWLock{hookable: &w.hookable, w: w}
}

// WriterQueue exposes the embedded writer ShflLock (stats, tests).
func (l *ShflRWLock) WriterQueue() *ShflLock { return l.w }

// Lock implements Lock (writer side). The writer queue raises the
// events; its lock_acquired fires before the reader drain below.
func (l *ShflRWLock) Lock(t *task.T) {
	l.w.Lock(t)
	l.wflag.Store(1)
	for i := 0; l.readers.Load() > 0; i++ {
		spinYield(i)
	}
}

// TryLock implements Lock.
func (l *ShflRWLock) TryLock(t *task.T) bool {
	if !l.w.TryLock(t) {
		return false
	}
	l.wflag.Store(1)
	if l.readers.Load() > 0 {
		l.wflag.Store(0)
		l.w.Unlock(t)
		return false
	}
	return true
}

// Unlock implements Lock (writer side).
func (l *ShflRWLock) Unlock(t *task.T) {
	l.wflag.Store(0)
	l.w.Unlock(t)
}

// RLock implements RWLock.
func (l *ShflRWLock) RLock(t *task.T) {
	start := l.begin(t, true)
	for i := 0; !l.tryRead(); i++ {
		if i == 0 {
			start = l.contended(t, start, 0, true)
		}
		spinYield(i)
	}
	l.acquired(t, start, 0, true)
}

// tryRead registers a reader unless a writer has announced intent.
func (l *ShflRWLock) tryRead() bool {
	if l.wflag.Load() != 0 {
		return false
	}
	l.readers.Add(1)
	if l.wflag.Load() != 0 {
		l.readers.Add(-1)
		return false
	}
	return true
}

// TryRLock implements RWLock.
func (l *ShflRWLock) TryRLock(t *task.T) bool {
	start := l.tryBegin()
	if !l.tryRead() {
		return false
	}
	l.acquired(t, start, 0, true)
	return true
}

// RUnlock implements RWLock.
func (l *ShflRWLock) RUnlock(t *task.T) {
	l.release(t, 0, true)
	l.readers.Add(-1)
}

var _ RWLock = (*ShflRWLock)(nil)
