// Package locks is a library of kernel-style lock algorithms implemented
// with Go atomics, structured the way the paper needs them: every
// decision point a Concord policy can influence is factored into a hook
// table (Table 1's seven APIs) that can be replaced at runtime through
// the livepatch slot, without touching the lock's code.
//
// The roster mirrors the lock lineage the paper recounts in §2.2: test-
// and-set and ticket spinlocks, MCS/CLH queue locks, cohort (hierarchical)
// NUMA locks, CNA, ShflLock (the primary policy target), a neutral
// blocking readers-writer semaphore, BRAVO reader biasing, and a
// per-socket distributed readers-writer lock (the "switch to a
// readers-intensive design" target of §3.1.1).
//
// Execution substrate note: threads are goroutines with a virtual CPU
// identity from internal/topology; spin loops always yield
// (runtime.Gosched) so the algorithms behave on hosts with any CPU
// count, including the single-CPU machine this repository is developed
// on. Contention, queueing, ordering and hook behaviour — the properties
// the paper's evaluation exercises — are unaffected.
package locks

import (
	"sync/atomic"

	"concord/internal/clock"
	"concord/internal/livepatch"
	"concord/internal/task"
)

// Lock is a mutual-exclusion lock taking the acquiring task explicitly
// (the userspace stand-in for the kernel's implicit `current`).
type Lock interface {
	// Lock acquires the lock for t, blocking until available.
	Lock(t *task.T)
	// TryLock attempts a non-blocking acquisition.
	TryLock(t *task.T) bool
	// Unlock releases the lock.
	Unlock(t *task.T)
	// ID is the lock's unique identity (used by policies and profiling).
	ID() uint64
	// Name is a human-readable label.
	Name() string
}

// RWLock adds shared (reader) acquisitions.
type RWLock interface {
	Lock
	// RLock acquires the lock shared.
	RLock(t *task.T)
	// TryRLock attempts a non-blocking shared acquisition.
	TryRLock(t *task.T) bool
	// RUnlock releases a shared acquisition.
	RUnlock(t *task.T)
}

// Hooked is implemented by locks whose behaviour Concord can patch.
type Hooked interface {
	// HookSlot returns the livepatch slot holding the lock's hook table.
	HookSlot() *livepatch.Slot[Hooks]
}

// Waiter is the read-only view of a queued waiter that policies examine
// (the paper's shuffler_node / curr_node arguments).
type Waiter struct {
	// Task is the waiting task.
	Task *task.T
	// EnqueueNS is when the waiter joined the queue.
	EnqueueNS int64

	// bypass counts how many times the shuffler moved another waiter
	// ahead of this one; the runtime starvation bound reads it.
	bypass atomic.Int32
}

// Bypassed reports how many waiters have been shuffled ahead of this one.
func (w *Waiter) Bypassed() int { return int(w.bypass.Load()) }

// WaitNS reports how long the waiter has been queued as of now.
func (w *Waiter) WaitNS(now int64) int64 { return now - w.EnqueueNS }

// ShuffleInfo is the context handed to shuffling hooks. Like Event, the
// pointer a hook receives is only valid for the duration of the call: the
// lock fills one ShuffleInfo per queue node and reuses it for every call
// of a round, so hooks must copy out any fields they keep.
type ShuffleInfo struct {
	LockID   uint64
	NowNS    int64
	QueueLen int
	Round    int
	Batch    int
	Shuffler *Waiter
	Curr     *Waiter // nil for skip_shuffle
}

// WaitInfo is the context handed to the schedule_waiter hook, valid only
// for the duration of the call (see ShuffleInfo).
type WaitInfo struct {
	LockID   uint64
	NowNS    int64
	QueueLen int
	// WaitersAhead estimates how many waiters are queued in front of
	// Curr: the queue length it saw on joining less the acquisitions
	// through the queue since. Exact in FIFO order; approximate once a
	// shuffler reorders the queue or enqueues race.
	WaitersAhead int
	SpinNS       int64
	// HolderCSAvg is the current holder's mean critical-section length
	// (0 when unknown), for sizing spin windows.
	HolderCSAvg int64
	Curr        *Waiter
}

// Wait decisions returned by ScheduleWaiter (mirroring policy.Waiter*).
const (
	// WaitDefault keeps the built-in spin-then-park behaviour.
	WaitDefault = 0
	// WaitKeepSpinning suppresses parking.
	WaitKeepSpinning = 1
	// WaitParkNow parks immediately.
	WaitParkNow = 2
)

// Event describes one profiling hook invocation (Table 1's last four
// APIs). The pointer a hook receives is only valid for the duration of
// the call: the emitting lock reuses a per-task scratch event, so hooks
// must copy out any fields they keep.
type Event struct {
	LockID   uint64
	Task     *task.T
	NowNS    int64
	WaitNS   int64 // acquired: time spent waiting
	HoldNS   int64 // release: time the lock was held
	QueueLen int
	Reader   bool
}

// Hooks is the patchable behaviour table of a lock: the seven Concord
// APIs of Table 1. Nil members keep the lock's built-in behaviour. A
// whole-table swap through the livepatch slot is how Concord changes a
// lock "implementation" on the fly — and the only way: a table is
// immutable once published (locks read it unpinned to learn which events
// have subscribers), so changing one member means publishing a new table.
type Hooks struct {
	// Name labels the installed policy (for reports).
	Name string

	// CmpNode decides whether the shuffler should move info.Curr into
	// its batch (Table 1: cmp_node). Hazard: fairness.
	CmpNode func(info *ShuffleInfo) bool
	// SkipShuffle decides whether to skip this shuffling round
	// (Table 1: skip_shuffle). Hazard: fairness.
	SkipShuffle func(info *ShuffleInfo) bool
	// ScheduleWaiter picks the waiting strategy for a queued waiter
	// (Table 1: schedule_waiter). Hazard: performance.
	ScheduleWaiter func(info *WaitInfo) int

	// Profiling hooks (Table 1: lock_acquire/contended/acquired/release).
	// Hazard: lengthening the critical section.
	OnAcquire   func(ev *Event)
	OnContended func(ev *Event)
	OnAcquired  func(ev *Event)
	OnRelease   func(ev *Event)
}

// safetyObserver, when set, is notified every time a runtime safety
// check quarantines a policy (disablePolicy). Installed by the telemetry
// layer via SetSafetyObserver; process-global, last set wins.
var safetyObserver atomic.Pointer[func(lockName, msg string)]

// SetSafetyObserver installs fn to be called on every runtime
// safety-check trip; nil disables the hook.
func SetSafetyObserver(fn func(lockName, msg string)) {
	if fn == nil {
		safetyObserver.Store(nil)
		return
	}
	safetyObserver.Store(&fn)
}

// lockIDs allocates process-unique lock identities.
var lockIDs atomic.Uint64

// NextLockID returns a fresh lock ID. The first 64 IDs are trackable in
// task held-lock masks (see task.MaxTrackedLockID).
func NextLockID() uint64 { return lockIDs.Add(1) - 1 }

// emit invokes fn with a copy of ev drawn from the task's scratch slot.
// Passing a pointer into an unknown hook function forces the event to
// the heap; reusing one event per task caps that at one allocation per
// task instead of one per lock operation. Safe because the Hooks
// contract says events are call-scoped, and reentrancy-safe because
// TakeScratch empties the slot while the hook runs.
func emit(t *task.T, fn func(*Event), ev Event) {
	p, _ := t.TakeScratch().(*Event)
	if p == nil {
		p = new(Event)
	}
	*p = ev
	fn(p)
	t.PutScratch(p)
}

// hookable is the embeddable base wiring a lock to its hook slot.
type hookable struct {
	id   uint64
	name string
	slot *livepatch.Slot[Hooks]
	now  func() int64

	// disabled is set by runtime safety checks when an attached policy
	// violated an invariant; hooks are then ignored until re-patched.
	disabled atomic.Bool
	// safetyErr records why hooks were disabled.
	safetyErr atomic.Pointer[string]
}

func newHookable(name string) hookable {
	return hookable{
		id:   NextLockID(),
		name: name,
		slot: livepatch.NewSlot[Hooks](nil),
		now:  clock.NowNS,
	}
}

// ID implements Lock.
func (h *hookable) ID() uint64 { return h.id }

// Name implements Lock.
func (h *hookable) Name() string { return h.name }

// HookSlot implements Hooked.
func (h *hookable) HookSlot() *livepatch.Slot[Hooks] { return h.slot }

// SetClock overrides the lock's clock (deterministic tests).
func (h *hookable) SetClock(now func() int64) { h.now = now }

// SafetyError returns the message recorded when runtime checks disabled
// an attached policy, or "" if none fired.
func (h *hookable) SafetyError() string {
	if p := h.safetyErr.Load(); p != nil {
		return *p
	}
	return ""
}

// disablePolicy is the runtime safety valve (paper §4.2): when an
// invariant check fails, the lock stops consulting hooks and records why.
// Mutual exclusion was never at risk — hooks only return decisions — but
// a policy that corrupts fairness accounting is quarantined.
func (h *hookable) disablePolicy(msg string) {
	h.safetyErr.Store(&msg)
	h.disabled.Store(true)
	if fn := safetyObserver.Load(); fn != nil {
		(*fn)(h.name, msg)
	}
}

// ResetSafety re-enables hook dispatch after a safety trip (used when a
// new policy is attached).
func (h *hookable) ResetSafety() {
	h.safetyErr.Store(nil)
	h.disabled.Store(false)
}

// getHooks pins the current hook table; the caller must call Release on
// the returned handle. Returns nil hooks when none are attached or
// safety checks tripped (neither holds a pin).
func (h *hookable) getHooks() (*Hooks, livepatch.Held[Hooks]) {
	if h.disabled.Load() {
		return nil, livepatch.Held[Hooks]{}
	}
	return h.slot.Get()
}

// peek returns the published hook table without pinning it (nil when
// none is attached or safety checks tripped). Tables are immutable once
// published, so a peeked table is safe to inspect — that is how a lock
// operation learns whether an event has a subscriber before paying for a
// pin or a clock read — but only a pinned table (getHooks) may be run:
// the pin is what Patch.Wait drains.
func (h *hookable) peek() *Hooks {
	if h.disabled.Load() {
		return nil
	}
	return h.slot.Peek()
}

// --- Instrumentation core ---
//
// The four profiling events of Table 1 (lock_acquire / contended /
// acquired / release) and the task bookkeeping that rides on them are
// raised here and nowhere else: every lock type brackets its algorithm
// with begin → [contended] → acquired … release (Try paths, which skip
// lock_acquire, open with tryBegin and call acquired on success).
//
// An operation pays for what is attached to its lock. The held mask is
// exact, always: acquired sets the task's bit and release clears it. Hold
// time is measured on every acquisition only while the lock's own table
// subscribes to lock_acquired or lock_release; otherwise on the task's
// sampling draw (task.SampleCS), as a section accounted at the draw's
// weight, so that policies on other locks still read an unbiased
// CSAverage — an undrawn pair reads no clock at all. Everything else
// follows the peeked table too: the start-time read in begin happens only
// when lock_acquire or lock_acquired has a subscriber, and a table is
// pinned only around a hook that fires, for exactly the duration of that
// call. DESIGN §7 states the contract, including which fields each lock
// family fills (decision 5), and why hold time is sampled (decision 6).

// eventKind names one of the four profiling events.
type eventKind uint8

const (
	evAcquire eventKind = iota
	evContended
	evAcquired
	evRelease
)

// fire pins the hook table and raises ev on the hook subscribed to k, if
// the pinned table (which may be newer than the one peeked) has one.
func (h *hookable) fire(t *task.T, k eventKind, ev Event) {
	hk, pin := h.getHooks()
	if hk != nil {
		var fn func(*Event)
		switch k {
		case evAcquire:
			fn = hk.OnAcquire
		case evContended:
			fn = hk.OnContended
		case evAcquired:
			fn = hk.OnAcquired
		case evRelease:
			fn = hk.OnRelease
		}
		if fn != nil {
			emit(t, fn, ev)
		}
	}
	pin.Release()
}

// begin raises lock_acquire and returns the operation's start time, which
// the caller hands to contended and acquired. With no subscriber to
// lock_acquire or lock_acquired nobody will ask how long the operation
// waited, so the clock is not read and the start time is 0 (unknown).
func (h *hookable) begin(t *task.T, reader bool) int64 {
	pk := h.peek()
	if pk == nil || (pk.OnAcquire == nil && pk.OnAcquired == nil) {
		return 0
	}
	start := h.now()
	if pk.OnAcquire != nil {
		h.fire(t, evAcquire, Event{LockID: h.id, Task: t, NowNS: start, Reader: reader})
	}
	return start
}

// tryBegin opens a Try operation, which raises no lock_acquire: it
// returns the start time acquired needs, read only when lock_acquired
// has a subscriber.
func (h *hookable) tryBegin() int64 {
	if pk := h.peek(); pk != nil && pk.OnAcquired != nil {
		return h.now()
	}
	return 0
}

// contended raises lock_contended: the fast path failed and the task is
// about to wait (for queue locks, its queue position is already fixed).
// It returns the operation's start time: start if begin read one, else
// the time of this call, so that a profiler attached while the task waits
// still gets a truthful wait.
func (h *hookable) contended(t *task.T, start int64, queueLen int, reader bool) int64 {
	pk := h.peek()
	subscribed := pk != nil && pk.OnContended != nil
	if start != 0 && !subscribed {
		return start
	}
	now := h.now()
	if subscribed {
		h.fire(t, evContended, Event{
			LockID: h.id, Task: t, NowNS: now, QueueLen: queueLen, Reader: reader,
		})
	}
	if start == 0 {
		start = now
	}
	return start
}

// acquired raises lock_acquired, then marks the lock held by t and opens
// its critical section: at weight 1 when this lock's table subscribes to
// lock_acquired or lock_release, else only when t's draw comes up, at the
// weight the draw returns. An unknown start (0: nothing was attached when
// the operation began, and it never waited) reports a zero wait.
func (h *hookable) acquired(t *task.T, start int64, queueLen int, reader bool) {
	pk := h.peek()
	if pk == nil || (pk.OnAcquired == nil && pk.OnRelease == nil) {
		t.NoteAcquired(h.id)
		if w := t.SampleCS(); w != 0 {
			t.EnterCSOn(h.id, h.now(), w)
		}
		return
	}
	now := h.now()
	if pk.OnAcquired != nil {
		var wait int64
		if start != 0 {
			wait = now - start
		}
		h.fire(t, evAcquired, Event{
			LockID: h.id, Task: t, NowNS: now,
			WaitNS: wait, QueueLen: queueLen, Reader: reader,
		})
	}
	t.NoteAcquired(h.id)
	t.EnterCSOn(h.id, now, 1)
}

// release closes t's critical section if this lock's acquisition opened
// it, clears the held bit and raises lock_release. HoldNS is 0 (unknown)
// when the open section is not this lock's: the acquisition was not timed,
// a nested timed section replaced it, or the table was attached
// mid-section. Callers invoke it before the store that frees the lock.
func (h *hookable) release(t *task.T, queueLen int, reader bool) {
	pk := h.peek()
	subscribed := pk != nil && pk.OnRelease != nil
	var now, hold int64
	if timed := t.CSOpenOn(h.id); timed || subscribed {
		now = h.now()
		if timed {
			hold = t.ExitCS(now)
		}
	}
	t.NoteReleased(h.id)
	if subscribed {
		h.fire(t, evRelease, Event{
			LockID: h.id, Task: t, NowNS: now,
			HoldNS: hold, QueueLen: queueLen, Reader: reader,
		})
	}
}
