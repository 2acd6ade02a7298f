package locks

import (
	"sync/atomic"

	"concord/internal/task"
	"concord/internal/topology"
)

// cohortSocket is the per-socket tier of a cohort lock.
type cohortSocket struct {
	local   atomic.Int32
	waiters atomic.Int32
	// ownsGlobal and batch are only touched while local is held.
	ownsGlobal bool
	batch      int32
	_          [48]byte // pad to a full line: sockets sit in one slice
}

// CohortLock is a two-level hierarchical NUMA lock in the style of lock
// cohorting (Dice/Marathe/Shavit, PPoPP '12): a global lock plus one
// local lock per socket. A releasing holder hands the lock to a waiter
// on its own socket when one exists (keeping the global lock owned by
// the socket), bounding consecutive local handoffs to keep inter-socket
// fairness. This is the "hierarchical lock" whose memory overhead and
// low-core-count regression motivated CNA and ShflLock (§2.2).
type CohortLock struct {
	hookable
	topo     *topology.Topology
	sockets  []cohortSocket
	maxBatch int32
	_        [64]byte // the contended global word gets a line of its own
	global   atomic.Int32
}

// NewCohortLock returns a cohort lock over topo. maxBatch bounds
// consecutive same-socket handoffs (0 means the default of 64).
func NewCohortLock(name string, topo *topology.Topology, maxBatch int) *CohortLock {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &CohortLock{
		hookable: newHookable(name),
		topo:     topo,
		sockets:  make([]cohortSocket, topo.NumSockets()),
		maxBatch: int32(maxBatch),
	}
}

// Lock implements Lock. The acquiring task must Unlock from the same
// socket (tasks do not migrate inside a critical section, as in the
// kernel, where preemption is disabled while a spinlock is held).
func (l *CohortLock) Lock(t *task.T) {
	start := l.begin(t, false)
	s := &l.sockets[t.Socket()]
	s.waiters.Add(1)
	if !s.local.CompareAndSwap(0, 1) {
		start = l.contended(t, start, 0, false)
		for i := 0; !s.local.CompareAndSwap(0, 1); i++ {
			spinYield(i)
		}
	}
	s.waiters.Add(-1)
	if !s.ownsGlobal {
		for i := 0; !l.global.CompareAndSwap(0, 1); i++ {
			spinYield(i)
		}
		s.ownsGlobal = true
		s.batch = 0
	}
	l.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (l *CohortLock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	s := &l.sockets[t.Socket()]
	if !s.local.CompareAndSwap(0, 1) {
		return false
	}
	if !s.ownsGlobal {
		if !l.global.CompareAndSwap(0, 1) {
			s.local.Store(0)
			return false
		}
		s.ownsGlobal = true
		s.batch = 0
	}
	l.acquired(t, start, 0, false)
	return true
}

// Unlock implements Lock.
func (l *CohortLock) Unlock(t *task.T) {
	l.release(t, 0, false)
	s := &l.sockets[t.Socket()]
	if s.waiters.Load() > 0 && s.batch < l.maxBatch {
		// Cohort handoff: keep the global lock socket-owned and pass
		// only the local lock.
		s.batch++
		s.local.Store(0)
		return
	}
	s.ownsGlobal = false
	l.global.Store(0)
	s.local.Store(0)
}

// --- CNA-style lock ---

// cnaNode is a queue entry of CNALock, pooled per task and padded to a
// cache line like mcsNode.
type cnaNode struct {
	socket int
	locked atomic.Bool
	next   atomic.Pointer[cnaNode]
	free   *cnaNode
	_      [32]byte
}

// CNALock is a compact NUMA-aware queue lock in the spirit of CNA
// (Dice & Kogan, EuroSys '19): a plain MCS queue whose *releasing owner*
// promotes the nearest same-socket waiter to the queue head before
// handing off, so consecutive owners tend to share a socket. Unlike full
// CNA it keeps bypassed remote waiters in place (shifted back one slot)
// rather than on a secondary queue — compact state, same NUMA batching —
// and reverts to FIFO handoff after maxHandoffs consecutive same-socket
// transfers to bound remote-waiter starvation.
type CNALock struct {
	hookable
	_     [64]byte
	tail  atomic.Pointer[cnaNode]
	_     [56]byte // enqueuers hammer tail; owner is release-path-only
	owner atomic.Pointer[cnaNode]

	scanWindow  int
	maxHandoffs int32
	handoffs    atomic.Int32 // consecutive same-socket handoffs
	promoted    atomic.Int64 // stat: NUMA promotions performed
}

// NewCNALock returns a CNA-style NUMA lock. scanWindow bounds how far
// the releaser searches for a same-socket successor (default 16);
// maxHandoffs bounds consecutive intra-socket transfers (default 64).
func NewCNALock(name string, scanWindow, maxHandoffs int) *CNALock {
	if scanWindow <= 0 {
		scanWindow = 16
	}
	if maxHandoffs <= 0 {
		maxHandoffs = 64
	}
	return &CNALock{
		hookable:    newHookable(name),
		scanWindow:  scanWindow,
		maxHandoffs: int32(maxHandoffs),
	}
}

// Promotions reports how many NUMA promotions the lock has performed.
func (l *CNALock) Promotions() int64 { return l.promoted.Load() }

// Lock implements Lock.
func (l *CNALock) Lock(t *task.T) {
	start := l.begin(t, false)
	n := takeCNANode(t, t.Socket())
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
func (l *CNALock) TryLock(t *task.T) bool {
	start := l.begin(t, false)
	n := takeCNANode(t, t.Socket())
	if !l.tail.CompareAndSwap(nil, n) {
		putCNANode(t, n)
		return false
	}
	l.owner.Store(n)
	l.acquired(t, start, 0, false)
	return true
}

// Unlock implements Lock.
func (l *CNALock) Unlock(t *task.T) {
	l.release(t, 0, false)
	n := l.owner.Load()
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			putCNANode(t, n)
			return
		}
		for i := 0; ; i++ {
			if next = n.next.Load(); next != nil {
				break
			}
			spinYield(i)
		}
	}

	// NUMA handoff: promote the nearest same-socket waiter to the front.
	// The releasing owner is the only interior-pointer mutator, and the
	// scan never touches a node whose next pointer is still nil (the
	// tail, or an enqueue in flight) — the same safety argument as the
	// ShflLock shuffler.
	if next.socket != n.socket && l.handoffs.Load() < l.maxHandoffs {
		prev := next
		curr := next.next.Load()
		for i := 0; curr != nil && i < l.scanWindow; i++ {
			following := curr.next.Load()
			if curr.socket == n.socket && following != nil {
				// Splice curr out and put it at the head.
				prev.next.Store(following)
				curr.next.Store(next)
				next = curr
				l.promoted.Add(1)
				break
			}
			if following == nil {
				break
			}
			prev = curr
			curr = following
		}
	}
	if next.socket == n.socket {
		l.handoffs.Add(1)
	} else {
		l.handoffs.Store(0)
	}
	next.locked.Store(false)
	putCNANode(t, n)
}
