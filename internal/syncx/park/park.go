// Package park is the adaptive spin-then-park waiter primitive shared
// by the blocking lock slow paths (ShflLock's parking mode, RWSem's
// wait queues).
//
// A Parker is a reusable, single-waiter handoff cell: Unpark posts an
// at-most-one pending signal, Park consumes it or blocks. Posting
// before parking is therefore never lost — the lost-wakeup hazard of
// bare channel/condvar handoffs — and a missed signal (dropped by fault
// injection or a crashed waker) costs at most one rescue interval,
// because parked waits always carry a watchdog timer.
//
// The package lives below internal/locks so the lock implementations
// can use it; it owns the park-path fault-injection hooks and the
// process-wide spin/park counters the telemetry layer exports.
package park

import (
	"runtime"
	"sync/atomic"
	"time"

	"concord/internal/faultinject"
)

// Process-wide waiter statistics (exported to obs as concord_park_*).
// They are updated on wait paths only — a waiter is off the critical
// path by definition — and sampled, not exact, on the spin counter: one
// increment per yield, not per re-check iteration, so the fast
// iterations stay free of shared-cacheline traffic.
var (
	statYields  atomic.Int64
	statParks   atomic.Int64
	statUnparks atomic.Int64
	statRescues atomic.Int64
)

// Stats is a snapshot of the process-wide waiter counters.
type Stats struct {
	// Yields counts scheduler yields performed inside spin phases.
	Yields int64
	// Parks counts blocking park operations (timer-guarded channel waits).
	Parks int64
	// Unparks counts wakeup signals posted.
	Unparks int64
	// Rescues counts parked waits that timed out and found their
	// condition already satisfied — i.e. recovered missed wakeups.
	Rescues int64
}

// Snapshot returns the current process-wide waiter counters.
func Snapshot() Stats {
	return Stats{
		Yields:  statYields.Load(),
		Parks:   statParks.Load(),
		Unparks: statUnparks.Load(),
		Rescues: statRescues.Load(),
	}
}

// CountRescue records one recovered missed wakeup. Callers invoke it
// when a rescue-timed park returns and the awaited condition turns out
// to have been satisfied without a signal.
func CountRescue() { statRescues.Add(1) }

// Spin phase shape: the first spinFastIters re-checks are free (a queue
// handoff in flight resolves faster than a yield costs), then yields
// are interleaved with geometrically growing frequency until, past
// spinSaturatedIters, every iteration yields — the bounded exponential
// backoff that keeps a saturated host scheduling the lock holder
// instead of its waiters.
const (
	spinFastIters      = 8
	spinSaturatedIters = 128
)

// Backoff performs the i-th iteration of an adaptive spin wait. It is
// the successor of the flat every-4th-iteration yield the spin locks
// used: cheap immediate re-checks first, then increasingly frequent
// cooperative yields, so it stays live on any GOMAXPROCS including 1.
func Backoff(i int) {
	if i < spinFastIters {
		return
	}
	// Yield on iteration counts 8,12,16,24,32,48,64,96,128 — roughly
	// ×1.5 spacing — then on every iteration once saturated.
	if i >= spinSaturatedIters || i&(nextPow2Mask(i)>>2) == 0 {
		statYields.Add(1)
		runtime.Gosched()
	}
}

// nextPow2Mask returns a mask of the highest set bit's power-of-two
// band for i >= 8 (used to space yields geometrically).
func nextPow2Mask(i int) int {
	m := 8
	for m <= i {
		m <<= 1
	}
	return m - 1
}

// Parker is a one-waiter handoff cell. The zero value is usable for
// waiters that only spin; Init (or the first Prepare) allocates the
// channel a blocking wait needs. A Parker must not be shared by two
// concurrent waiters; any number of goroutines may Unpark it.
type Parker struct {
	// ch carries the pending signal; cap 1 so one posted wakeup is
	// remembered across the post/park race. Written once by Init before
	// the Parker is published to wakers, then immutable — so reuse of a
	// pooled Parker never races an in-flight Unpark.
	ch chan struct{}

	// timer is the rescue watchdog, allocated on first parked wait and
	// reused via Reset so the steady-state park path is allocation-free.
	// Owner-goroutine only.
	timer *time.Timer
}

// Init allocates the signal channel if absent. Call before publishing
// the Parker to potential wakers; subsequent Inits are no-ops.
func (p *Parker) Init() {
	if p.ch == nil {
		p.ch = make(chan struct{}, 1)
	}
}

// Drain clears any stale pending signal, so a pooled Parker starts its
// next wait without a wakeup left over from a previous life. A stale
// signal is harmless even undrained — consumers re-check their
// condition — but draining keeps park counts meaningful.
func (p *Parker) Drain() {
	select {
	case <-p.ch:
	default:
	}
}

// Park blocks until a signal is posted (or consumes one already
// pending). Prefer ParkRescue: an unbounded park turns a missed wakeup
// into a hang.
func (p *Parker) Park() {
	statParks.Add(1)
	<-p.ch
}

// ParkRescue blocks until a signal arrives or the rescue interval d
// elapses. It reports whether a signal was consumed; false means the
// watchdog fired and the caller must re-check its condition — the
// missed-wakeup recovery path. The rescue timer is reused across calls
// (Go 1.23+ timer semantics make Stop/Reset safe without draining).
func (p *Parker) ParkRescue(d time.Duration) bool {
	statParks.Add(1)
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.ch:
		p.timer.Stop()
		return true
	case <-p.timer.C:
		return false
	}
}

// Unpark posts a wakeup: at most one signal stays pending, and posting
// to a Parker nobody ever parks on is harmless. The injected handoff
// faults live here (nil-checks when disarmed) so every parking lock
// inherits them: a lost wakeup drops the signal entirely — the rescue
// watchdog must restore liveness — and a park delay stretches the
// handoff.
func (p *Parker) Unpark() {
	if p.ch == nil {
		return
	}
	statUnparks.Add(1)
	if faultinject.LockLostWakeup.Enabled() {
		if _, ok := faultinject.LockLostWakeup.Fire(); ok {
			return
		}
	}
	if faultinject.LockParkDelay.Enabled() {
		if flt, ok := faultinject.LockParkDelay.Fire(); ok && flt.Delay > 0 {
			time.Sleep(flt.Delay)
		}
	}
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// AwaitFlag is the composed adaptive wait: spin on done with bounded
// exponential backoff for up to spinBudget iterations, then park with
// the rescue watchdog until done is set. The waker must set done
// *before* calling Unpark — that ordering is what makes the handoff
// immune to both lost and stale wakeups. Returns how many rescue
// timeouts found done already set (missed wakeups recovered).
func (p *Parker) AwaitFlag(done *atomic.Bool, spinBudget int, rescue time.Duration) (rescued int) {
	for i := 0; i < spinBudget; i++ {
		if done.Load() {
			return 0
		}
		Backoff(i)
	}
	for !done.Load() {
		if !p.ParkRescue(rescue) && done.Load() {
			CountRescue()
			return 1
		}
	}
	return 0
}
