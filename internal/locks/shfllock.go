package locks

import (
	"fmt"
	"sync/atomic"
	"time"

	"concord/internal/syncx/park"
	"concord/internal/task"
)

// Node status values for the ShflLock queue.
const (
	shflWaiting int32 = iota // spinning/parked on own node
	shflHead                 // promoted: now competing for the lock word
)

// shflNode is one waiter in the ShflLock queue, pooled per task (see
// pool.go). Its parker channel is allocated once at node construction and
// survives pooling, so an unpark in flight from a previous life can never
// race a reuse; whether *this* life may actually park is the
// per-acquisition mayPark flag, which also keeps the injected handoff
// faults (inside park.Unpark) firing only for park-capable waiters — the
// accounting the chaos suite checks.
//
// The node is three cache lines. The first holds what other tasks touch
// (the predecessor's promotion store, enqueuers' and the shuffler's next
// stores, the shuffler's bypass charge). The other two hold the contexts
// the node's own task hands to its hooks — sinfo while it is the shuffler,
// winfo (and what it is computed from) while it waits for promotion —
// which only that task writes. They
// live here because a context passed by address into an unknown hook is
// heap-allocated, and the node is the one piece of memory the waiter
// already owns for exactly as long as it can shuffle or wait.
type shflNode struct {
	Waiter
	status  atomic.Int32
	mayPark atomic.Bool
	next    atomic.Pointer[shflNode]
	free    *shflNode
	park    park.Parker

	sinfo ShuffleInfo
	_     [8]byte
	winfo WaitInfo
	// What the node's task saw as it enqueued, for winfo.WaitersAhead:
	// the queue's length and the lock's grant count (see ShflLock.grants).
	aheadSeen  int32
	grantsSeen uint32
}

func (n *shflNode) unpark() {
	if !n.mayPark.Load() {
		return
	}
	n.park.Unpark()
}

// ShflLock is the shuffling lock of Kashyap et al. (SOSP '19), the
// paper's primary policy target: a test-and-set lock word guarded by an
// MCS-style waiter queue, where the queue head — the *shuffler* —
// reorders waiters behind it according to a pluggable policy while it
// waits, keeping policy work off the critical path.
//
// The policy is consulted through the lock's hook table (cmp_node,
// skip_shuffle, schedule_waiter), so Concord can replace it at runtime.
// With no hooks attached the queue is strict FIFO.
//
// Runtime safety checks (paper §4.2): shuffling rounds per acquisition
// are statically bounded; each waiter has a bypass budget that bounds
// starvation no matter what the policy returns; and the queue is
// re-counted after each round — it may only have grown by concurrent
// enqueues, never shrunk. A violated check quarantines the
// policy via disablePolicy.
type ShflLock struct {
	hookable
	_ [64]byte
	// locked is the lock word, and it names its holder: nil when free,
	// else the task inside the critical section, set by the CAS that
	// takes the lock and cleared by the store that frees it. Every
	// waiter CASes it, so it has a line of its own, shared only with
	// grants, which only the task that has just won this CAS writes.
	locked atomic.Pointer[task.T]
	// grants counts acquisitions through the queue. Waiters subtract the
	// count they enqueued at from it to estimate how many of the waiters
	// they queued behind are gone.
	grants atomic.Uint32
	_      [52]byte
	tail   atomic.Pointer[shflNode] // every enqueuer swaps this
	_      [56]byte
	qlen   atomic.Int32
	_      [60]byte

	blocking   atomic.Bool
	spinBudget int
	maxRounds  int
	maxScan    int

	// Shuffle statistics (tests and reports).
	statRounds atomic.Int64
	statMoves  atomic.Int64
	statSkips  atomic.Int64

	// statRescues counts parked waiters the rescue timer recovered after
	// a missed wakeup (robustness watchdog; see park).
	statRescues atomic.Int64
}

// ShflOption configures a ShflLock.
type ShflOption func(*ShflLock)

// WithBlocking makes waiters park after their spin budget instead of
// spinning indefinitely (the mutex/rwsem-style variant).
func WithBlocking(b bool) ShflOption { return func(l *ShflLock) { l.blocking.Store(b) } }

// WithSpinBudget sets how many spin iterations a waiter performs before
// parking (blocking locks only).
func WithSpinBudget(n int) ShflOption { return func(l *ShflLock) { l.spinBudget = n } }

// WithMaxRounds bounds shuffling rounds per lock acquisition.
func WithMaxRounds(n int) ShflOption { return func(l *ShflLock) { l.maxRounds = n } }

// WithMaxScan bounds how many waiters one shuffling round examines.
func WithMaxScan(n int) ShflOption {
	return func(l *ShflLock) {
		if n > maxScanCap {
			n = maxScanCap
		}
		l.maxScan = n
	}
}

const (
	// maxScanCap bounds the scan window so per-round bookkeeping fits a
	// fixed stack buffer.
	maxScanCap = 64
	// shflMaxBatch bounds how many waiters one round groups into the
	// shuffler's batch.
	shflMaxBatch = 32
	// shflBypassBudget bounds how many times a waiter may be overtaken
	// before shuffling stops on its behalf (the starvation bound).
	shflBypassBudget = 16
)

// NewShflLock returns a shuffling lock. Defaults: non-blocking, spin
// budget 128, 16 shuffle rounds, scan window 32. The batch (32) and the
// bypass budget (16) are fixed, and the queue is recounted after every
// round.
func NewShflLock(name string, opts ...ShflOption) *ShflLock {
	l := &ShflLock{
		hookable:   newHookable(name),
		spinBudget: 128,
		maxRounds:  16,
		maxScan:    32,
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// ShuffleStats reports cumulative shuffling activity:
// rounds run, waiters moved, rounds skipped by skip_shuffle.
func (l *ShflLock) ShuffleStats() (rounds, moves, skips int64) {
	return l.statRounds.Load(), l.statMoves.Load(), l.statSkips.Load()
}

// QueueLen reports the instantaneous number of queued waiters.
func (l *ShflLock) QueueLen() int { return int(l.qlen.Load()) }

// ParkRescues reports how many parked waiters were recovered by the
// rescue timer after a missed wakeup.
func (l *ShflLock) ParkRescues() int64 { return l.statRescues.Load() }

// Lock implements Lock.
func (l *ShflLock) Lock(t *task.T) {
	start := l.begin(t, false)
	// Fast path: nobody queued and the lock word is free.
	if l.tail.Load() == nil && l.locked.CompareAndSwap(nil, t) {
		l.acquired(t, start, int(l.qlen.Load()), false)
		return
	}
	start = l.contended(t, start, int(l.qlen.Load()), false)
	l.slowPath(t, start)
}

// TryLock implements Lock.
func (l *ShflLock) TryLock(t *task.T) bool {
	if l.tail.Load() == nil && l.locked.CompareAndSwap(nil, t) {
		l.acquired(t, 0, int(l.qlen.Load()), false)
		return true
	}
	return false
}

// Holder returns the task currently holding the lock, or nil. It loads
// the lock word, so it is exact at the instant of the load: the holder
// from the CAS that takes the lock to the store that frees it, which
// includes every lock_acquired and lock_release hook the holder raises on
// this lock. To any goroutine but the holder's the value may be stale by
// the time it is used, the same guarantee the kernel's owner fields give.
func (l *ShflLock) Holder() *task.T { return l.locked.Load() }

// Unlock implements Lock. It panics if t does not hold the lock.
func (l *ShflLock) Unlock(t *task.T) {
	if l.locked.Load() != t {
		panic("locks: Unlock of ShflLock not held by task")
	}
	l.release(t, int(l.qlen.Load()), false)
	l.locked.Store(nil)
}

func (l *ShflLock) slowPath(t *task.T, start int64) {
	n := takeShflNode(t, l.now())
	// Fix the park capability for this node life before publication;
	// waiters already queued keep the mode they enqueued with.
	n.mayPark.Store(l.blocking.Load())
	n.grantsSeen = l.grants.Load()
	n.aheadSeen = l.qlen.Add(1) - 1
	prev := l.tail.Swap(n)
	if prev != nil {
		prev.next.Store(n)
		l.waitForHead(n)
	} else {
		n.status.Store(shflHead)
	}

	// Queue head: compete for the lock word, shuffling while we wait.
	// Shuffling runs before each acquisition attempt so at least one
	// round happens per handover even when the lock frees immediately —
	// in the real lock the waiting window is long enough that this is
	// implicit; under a cooperative scheduler it must be explicit.
	round := 0
	for i := 0; ; i++ {
		l.shuffle(n, &round)
		if l.locked.CompareAndSwap(nil, t) {
			break
		}
		spinYield(i)
	}

	// Lock word owned; leave the queue and promote our successor.
	l.grants.Store(l.grants.Load() + 1)
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
		next.status.Store(shflHead)
		next.unpark()
	}
	l.qlen.Add(-1)
	// n left the queue: the successor (if any) was promoted, any
	// in-flight enqueuer finished its next-store, and shufflers only run
	// at the (new) head — n is private again.
	putShflNode(t, n)
	l.acquired(t, start, int(l.qlen.Load()), false)
}

// waitForHead spins (or parks) until n is promoted to queue head,
// consulting the schedule_waiter hook for the strategy.
func (l *ShflLock) waitForHead(n *shflNode) {
	spinStart := l.now()
	for i := 0; n.status.Load() != shflHead; i++ {
		decision := WaitDefault
		if pk := l.peek(); pk != nil && pk.ScheduleWaiter != nil {
			decision = l.scheduleWaiter(n, spinStart)
		}

		switch {
		case decision == WaitParkNow && n.mayPark.Load():
			l.park(n)
		case decision == WaitKeepSpinning:
			park.Backoff(i)
		default:
			if n.mayPark.Load() && i >= l.spinBudget {
				l.park(n)
			} else {
				park.Backoff(i)
			}
		}
	}
}

// scheduleWaiter pins the hook table and asks its schedule_waiter hook,
// if the pinned table has one, how n should wait.
func (l *ShflLock) scheduleWaiter(n *shflNode, spinStart int64) int {
	h, release := l.getHooks()
	if h == nil || h.ScheduleWaiter == nil {
		release.Release()
		return WaitDefault
	}
	info := &n.winfo
	*info = WaitInfo{
		LockID:   l.id,
		NowNS:    l.now(),
		QueueLen: int(l.qlen.Load()),
		SpinNS:   l.now() - spinStart,
		Curr:     &n.Waiter,
	}
	// Waiters ahead: those queued when n joined, less the grants since.
	// Approximate — the two counters are not read together, and a
	// shuffler may have moved n past waiters it still counts (or others
	// past n) — and exact in FIFO order without racing enqueues.
	if ahead := int(n.aheadSeen) - int(l.grants.Load()-n.grantsSeen); ahead > 0 {
		info.WaitersAhead = ahead
	}
	// Expose the holder's typical critical-section length so parking
	// policies can size their spin window (§3.1.1 "adaptable
	// parking/wake-up strategy").
	if holder := l.locked.Load(); holder != nil {
		info.HolderCSAvg = holder.CSAverage()
	}
	decision := h.ScheduleWaiter(info)
	release.Release()
	return decision
}

// parkRescueInterval bounds how long a parked waiter sleeps before
// re-checking its promotion status. A wakeup lost between the status
// store and the channel send (or dropped by fault injection) costs at
// most one interval instead of hanging the queue — the kernel-style
// "missed wakeup" watchdog. Parking is already the slow path (spin
// budget exhausted), so the periodic re-check is off the critical path.
const parkRescueInterval = 2 * time.Millisecond

func (l *ShflLock) park(n *shflNode) {
	for n.status.Load() != shflHead {
		if !n.park.ParkRescue(parkRescueInterval) && n.status.Load() == shflHead {
			// Promoted but never signalled: a lost wakeup, healed.
			l.statRescues.Add(1)
			park.CountRescue()
			return
		}
	}
}

// shuffle runs one shuffling round with n as the shuffler. Only the
// queue head calls this, so there is exactly one mutator of interior
// next pointers; enqueuers only ever write the next pointer of the node
// that was the tail, and the scan treats next == nil as a hard barrier.
func (l *ShflLock) shuffle(n *shflNode, round *int) {
	if pk := l.peek(); pk == nil || pk.CmpNode == nil {
		return
	}
	h, release := l.getHooks()
	defer release.Release()
	if h == nil || h.CmpNode == nil {
		return
	}
	if *round >= l.maxRounds {
		return
	}
	*round++
	l.statRounds.Add(1)

	now := l.now()
	info := &n.sinfo
	*info = ShuffleInfo{
		LockID:   l.id,
		NowNS:    now,
		QueueLen: int(l.qlen.Load()),
		Round:    *round,
		Shuffler: &n.Waiter,
	}
	if h.SkipShuffle != nil && h.SkipShuffle(info) {
		l.statSkips.Add(1)
		return
	}

	before := l.countFrom(n)

	var skipped [maxScanCap]*shflNode
	nSkipped := 0
	batchEnd := n
	prev := n
	curr := n.next.Load()
	batch := 1

	for scanned := 0; curr != nil && scanned < l.maxScan && batch < shflMaxBatch; scanned++ {
		next := curr.next.Load()
		if next == nil {
			break // current tail (or enqueue in flight): never touched
		}
		info.Curr = &curr.Waiter
		info.Batch = batch
		if h.CmpNode(info) {
			// Moving curr overtakes every waiter we previously skipped.
			// If any of them has already exhausted its bypass budget the
			// round stops *before* the move — the starvation bound of
			// §4.2 — otherwise they are charged one more bypass.
			if nSkipped > 0 && prev != batchEnd {
				exhausted := false
				for i := 0; i < nSkipped; i++ {
					if skipped[i].bypass.Load() >= shflBypassBudget {
						exhausted = true
						break
					}
				}
				if exhausted {
					break
				}
				for i := 0; i < nSkipped; i++ {
					skipped[i].bypass.Add(1)
				}
			}
			if prev == batchEnd {
				// Already adjacent to the batch: just extend it.
				batchEnd = curr
				prev = curr
			} else {
				// Splice curr out and reinsert it right after the batch.
				prev.next.Store(next)
				curr.next.Store(batchEnd.next.Load())
				batchEnd.next.Store(curr)
				batchEnd = curr
			}
			curr = next
			batch++
			l.statMoves.Add(1)
		} else {
			if nSkipped < len(skipped) {
				skipped[nSkipped] = curr
				nSkipped++
			}
			prev = curr
			curr = next
		}
	}

	if after := l.countFrom(n); after < before {
		l.disablePolicy(fmt.Sprintf(
			"shuffle invariant violated on %q: queue shrank %d -> %d", l.name, before, after))
	}
}

// countFrom counts queue nodes reachable from n (inclusive) up to the
// first nil next pointer, bounded well past the shuffle window.
func (l *ShflLock) countFrom(n *shflNode) int {
	count := 0
	for c := n; c != nil && count < l.maxScan+shflMaxBatch+8; c = c.next.Load() {
		count++
	}
	return count
}

// Interface conformance checks.
var (
	_ Lock   = (*ShflLock)(nil)
	_ Hooked = (*ShflLock)(nil)
)

// SetBlocking switches the lock between blocking (waiters park after
// their spin budget — rwsem/mutex style) and non-blocking (pure
// spinning — rwlock/spinlock style) for *new* waiters, realizing the
// §3.1.1 scenario (iii) switch at runtime. Waiters already queued keep
// the mode they enqueued with.
func (l *ShflLock) SetBlocking(b bool) { l.blocking.Store(b) }

// Blocking reports whether new waiters park after their spin budget.
func (l *ShflLock) Blocking() bool { return l.blocking.Load() }
