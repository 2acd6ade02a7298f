package locks

import (
	"sync"
	"sync/atomic"

	"concord/internal/syncx/park"
	"concord/internal/task"
)

// semWaiter is one queued reader or writer of an RWSem, pooled per task
// (see pool.go) and padded to a cache line. The handoff is by direct
// grant: the releaser updates the semaphore state on the waiter's
// behalf, sets granted, and unparks — the woken waiter re-checks
// nothing and never re-acquires the semaphore's mutex.
type semWaiter struct {
	parker  park.Parker
	next    *semWaiter
	free    *semWaiter
	reader  bool
	granted atomic.Bool
	_       [30]byte
}

// semQueue is a FIFO of semWaiters, guarded by the owning RWSem's mu.
type semQueue struct {
	head, tail *semWaiter
	len        int
}

func (q *semQueue) push(w *semWaiter) {
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
	q.len++
}

func (q *semQueue) pop() *semWaiter {
	w := q.head
	q.head = w.next
	if q.head == nil {
		q.tail = nil
	}
	w.next = nil
	q.len--
	return w
}

// semSpinBudget is how many adaptive-spin iterations a semaphore waiter
// performs before parking. Semaphore critical sections are longer than
// spinlock ones, so the budget is modest: enough to ride out a grant
// already in flight, not enough to burn a scheduler quantum.
const semSpinBudget = 64

// grant hands the semaphore to w: the caller has already updated the
// semaphore state on w's behalf under mu. granted is set before the
// unpark, which is what makes the handoff immune to lost and stale
// wakeups and lets the waiter free its node the moment it observes the
// flag (an in-flight unpark only ever touches the node's parker channel,
// which survives pooling).
func (w *semWaiter) grantAndWake() {
	w.granted.Store(true)
	w.parker.Unpark()
}

// RWSem is the "stock" neutral readers-writer semaphore: a single shared
// structure that every reader and writer serializes through, in the
// style of Linux's rwsem. Its read-side centralization is precisely the
// scalability weakness that Figure 2(a)'s page_fault2 benchmark exposes
// and that BRAVO/per-socket designs fix (§3.1.1 "Lock switching").
//
// Writers waiting block new readers, the usual anti-starvation rule.
// Waiters spin-then-park (park.Parker) instead of condvar-waiting, so a
// wait costs no allocation and a missed wakeup heals within one rescue
// interval.
type RWSem struct {
	hookable
	occ     occState // optimistic read tier (occ.go)
	mu      sync.Mutex
	readers int
	writer  bool
	rq, wq  semQueue // queued readers / writers (wq.len ≡ writersWaiting)
}

// NewRWSem returns a neutral blocking readers-writer semaphore.
func NewRWSem(name string) *RWSem {
	return &RWSem{hookable: newHookable(name)}
}

// await blocks the calling task until its waiter is granted, then
// retires the waiter node. Called with mu released.
func (s *RWSem) await(t *task.T, w *semWaiter) {
	w.parker.AwaitFlag(&w.granted, semSpinBudget, parkRescueInterval)
	putSemWaiter(t, w)
}

// RLock implements RWLock.
func (s *RWSem) RLock(t *task.T) {
	start := s.begin(t, true)
	s.mu.Lock()
	if !s.writer && s.wq.len == 0 {
		s.readers++
		s.mu.Unlock()
		s.acquired(t, start, 0, true)
		return
	}
	w := takeSemWaiter(t)
	w.reader = true
	s.rq.push(w)
	s.mu.Unlock()
	start = s.contended(t, start, 0, true)
	s.await(t, w)
	s.acquired(t, start, 0, true)
}

// TryRLock implements RWLock.
func (s *RWSem) TryRLock(t *task.T) bool {
	start := s.begin(t, true)
	s.mu.Lock()
	if s.writer || s.wq.len > 0 {
		s.mu.Unlock()
		return false
	}
	s.readers++
	s.mu.Unlock()
	s.acquired(t, start, 0, true)
	return true
}

// RUnlock implements RWLock.
func (s *RWSem) RUnlock(t *task.T) {
	s.release(t, 0, true)
	s.mu.Lock()
	s.readers--
	if s.readers < 0 {
		s.mu.Unlock()
		panic("locks: RUnlock of unlocked RWSem")
	}
	var wake *semWaiter
	if s.readers == 0 && !s.writer && s.wq.len > 0 {
		wake = s.wq.pop()
		s.writer = true
	}
	s.mu.Unlock()
	if wake != nil {
		wake.grantAndWake()
	}
}

// Lock implements Lock (writer side).
func (s *RWSem) Lock(t *task.T) {
	start := s.begin(t, false)
	s.mu.Lock()
	if !s.writer && s.readers == 0 {
		s.writer = true
		s.mu.Unlock()
		s.acquired(t, start, 0, false)
		s.occ.beginWrite()
		return
	}
	w := takeSemWaiter(t)
	w.reader = false
	s.wq.push(w)
	s.mu.Unlock()
	start = s.contended(t, start, 0, false)
	s.await(t, w)
	s.acquired(t, start, 0, false)
	s.occ.beginWrite()
}

// TryLock implements Lock.
func (s *RWSem) TryLock(t *task.T) bool {
	start := s.begin(t, false)
	s.mu.Lock()
	if s.writer || s.readers > 0 {
		s.mu.Unlock()
		return false
	}
	s.writer = true
	s.mu.Unlock()
	s.acquired(t, start, 0, false)
	s.occ.beginWrite()
	return true
}

// Unlock implements Lock (writer side).
func (s *RWSem) Unlock(t *task.T) {
	s.occ.endWrite() // close the write section while exclusion is still held
	s.release(t, 0, false)
	s.mu.Lock()
	if !s.writer {
		s.mu.Unlock()
		panic("locks: Unlock of unlocked RWSem")
	}
	s.writer = false
	// Next writer if one queued (writers-first, as before); otherwise
	// admit the whole reader queue in one batch.
	var wakeWriter, wakeReaders *semWaiter
	if s.wq.len > 0 {
		wakeWriter = s.wq.pop()
		s.writer = true
	} else if s.rq.len > 0 {
		wakeReaders = s.rq.head
		s.readers += s.rq.len
		s.rq = semQueue{}
	}
	s.mu.Unlock()
	if wakeWriter != nil {
		wakeWriter.grantAndWake()
		return
	}
	// The batch list is private now: granted waiters free their own
	// nodes, so read next before granting each.
	for w := wakeReaders; w != nil; {
		next := w.next
		w.next = nil
		w.grantAndWake()
		w = next
	}
}

// Readers reports the current reader count (tests/monitoring).
func (s *RWSem) Readers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readers
}

var _ RWLock = (*RWSem)(nil)
