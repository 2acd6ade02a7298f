package locks

import (
	"sync/atomic"

	"concord/internal/task"
	"concord/internal/topology"
)

// paddedCounter is a cacheline-padded reader counter so per-socket
// counters do not false-share.
type paddedCounter struct {
	n atomic.Int64
	_ [7]int64
}

// PerSocketRWLock is the distributed, readers-intensive readers-writer
// design of Calciu et al. (PPoPP '13): readers touch only their own
// socket's counter, writers sweep all of them. It is the lock a C3 user
// switches *to* for read-mostly phases (§3.1.1 scenario (i)) and the
// structural sibling of what BRAVO approximates with its reader table.
type PerSocketRWLock struct {
	hookable
	topo    *topology.Topology
	readers []paddedCounter // one per socket
	writer  atomic.Int32
}

// NewPerSocketRWLock returns a per-socket distributed RW lock on topo.
func NewPerSocketRWLock(name string, topo *topology.Topology) *PerSocketRWLock {
	return &PerSocketRWLock{
		hookable: newHookable(name),
		topo:     topo,
		readers:  make([]paddedCounter, topo.NumSockets()),
	}
}

// RLock implements RWLock.
func (l *PerSocketRWLock) RLock(t *task.T) {
	start := l.begin(t, true)
	c := &l.readers[t.Socket()]
	contended := false
	for i := 0; ; i++ {
		c.n.Add(1)
		if l.writer.Load() == 0 {
			break
		}
		// A writer is active or arriving: back out and wait.
		c.n.Add(-1)
		if !contended {
			contended = true
			start = l.contended(t, start, 0, true)
		}
		for j := 0; l.writer.Load() != 0; j++ {
			spinYield(j)
		}
	}
	l.acquired(t, start, 0, true)
}

// TryRLock implements RWLock.
func (l *PerSocketRWLock) TryRLock(t *task.T) bool {
	start := l.begin(t, true)
	c := &l.readers[t.Socket()]
	c.n.Add(1)
	if l.writer.Load() != 0 {
		c.n.Add(-1)
		return false
	}
	l.acquired(t, start, 0, true)
	return true
}

// RUnlock implements RWLock.
func (l *PerSocketRWLock) RUnlock(t *task.T) {
	l.release(t, 0, true)
	l.readers[t.Socket()].n.Add(-1)
}

// Lock implements Lock (writer side): claim the writer flag, then wait
// for every socket's readers to drain.
func (l *PerSocketRWLock) Lock(t *task.T) {
	start := l.begin(t, false)
	if !l.writer.CompareAndSwap(0, 1) {
		start = l.contended(t, start, 0, false)
		for i := 0; !l.writer.CompareAndSwap(0, 1); i++ {
			spinYield(i)
		}
	}
	for s := range l.readers {
		for i := 0; l.readers[s].n.Load() > 0; i++ {
			spinYield(i)
		}
	}
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *PerSocketRWLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	if !l.writer.CompareAndSwap(0, 1) {
		return false
	}
	for s := range l.readers {
		if l.readers[s].n.Load() > 0 {
			l.writer.Store(0)
			return false
		}
	}
	l.acquired(t, start, 0, false)
	return true
}

// Unlock implements Lock (writer side).
func (l *PerSocketRWLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	l.writer.Store(0)
}

var _ RWLock = (*PerSocketRWLock)(nil)
