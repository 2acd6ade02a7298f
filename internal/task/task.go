// Package task models the kernel's notion of the *current task* for the
// purposes of concurrency control. A kernel lock implicitly knows which
// task is acquiring it (current) and which CPU it runs on
// (smp_processor_id()); in userspace Go that context must be carried
// explicitly, so every lock operation in this repository takes a *task.T.
//
// The fields mirror exactly the context the paper's use cases need (§3):
// CPU and socket identity for NUMA-aware shuffling, priority for
// boosting/inheritance, the set of held locks for lock inheritance,
// critical-section accounting for scheduler-subversion policies, and a
// vCPU time quota for hypervisor-exposed scheduling.
package task

import (
	"fmt"
	"sync/atomic"

	"concord/internal/topology"
)

// Policy-visible priority levels, mirroring Linux niceness bands.
const (
	PrioIdle     = 0
	PrioLow      = 20
	PrioNormal   = 120
	PrioHigh     = 140
	PrioRealtime = 200
)

var nextID atomic.Int64

// T is one execution context (a thread, in kernel terms).
//
// Fields that policies read while the task sits in a lock queue are
// accessed via atomic methods, because the shuffler examines waiting
// tasks from another thread. The held-lock mask is the exception: only
// the owner goroutine writes it, and another goroutine reads it only on
// a task it reached through a lock queue, which orders the read after
// the task's last write and before its next one (see heldLocks).
type T struct {
	id  int64
	cpu atomic.Int64 // virtual CPU; may change if migrated

	topo *topology.Topology

	prio   atomic.Int64
	weight atomic.Int64

	// heldLocks is a bitmask over small lock IDs (0..63). The kernel
	// tracks held locks per task for lockdep; a 64-bit mask covers every
	// lock class this repository instantiates in one scenario, and the
	// shuffler consults it for the lock-inheritance policy (§3.1.1).
	//
	// It is a plain word, written only by the owner goroutine (the locks
	// set and clear bits on the acquiring and releasing path), yet exact
	// for every reader the locks hand it to. The owner reads it freely. A
	// shuffler reads it on a waiter it reached through its queue, and a
	// queue orders both sides of that read: the waiter's last write comes
	// before the atomic swap and store that publish its node, which the
	// shuffler's atomic load of a next pointer observes, directly or
	// through an earlier shuffler's splice; and the waiter writes again
	// only after it has observed its promotion to queue head, which the
	// head stores after its last read. Any other goroutine must order
	// its read against the owner's writes itself (a test reads after
	// joining the owner), or it races.
	heldLocks uint64

	// Critical-section accounting for occupancy-aware policies (§3.1.2).
	// What one acquire/release pair pays for the held mask: a plain
	// or-store and and-not-store on heldLocks, no locked operation (DESIGN
	// §7 decision 6). A section is timed only when the lock's own table
	// subscribes to lock_release, or else on this task's
	// 1-in-csSampleEvery draw; a timed section adds up to two clock reads
	// in the lock and three locked operations here: csTotalNS and csCount
	// (an add each) feed CSAverage, which shufflers and schedule_waiter
	// read from other goroutines while this task runs, and csLastNS (a
	// store) backs the any-goroutine getter CSLast. The rest of the open
	// section — when it started, which lock opened it, what weight it is
	// accounted with — and the draw's state have no getter another
	// goroutine may call: only the owner goroutine touches them, like
	// hookScratch, so they are plain fields.
	csStartNS int64  // 0: no section open
	csLockID  uint64 // lock whose acquisition opened the section
	csWeight  int64  // 1 exact, csSampleEvery sampled
	csDraw    uint64 // xorshift64* state, never 0
	csTotalNS atomic.Int64
	csCount   atomic.Int64
	csLastNS  atomic.Int64

	// vCPU scheduling info a hypervisor would expose (§3.1.1,
	// "Exposing scheduler semantics").
	quotaNS   atomic.Int64
	preempted atomic.Bool

	// hookScratch is a free-list of one, used by the locks layer to
	// reuse hook-event allocations across emissions on this task. Only
	// the task's own goroutine touches it (events are emitted on the
	// acquiring/releasing path), so it needs no synchronisation.
	hookScratch any

	// fireScratch is a second free-list of one with the same discipline,
	// for the layer that turns a hook call into a policy execution
	// (core's context words and execution environment). It is separate
	// from hookScratch because the two are in use at once: the lock holds
	// the event scratch while the hook it calls holds this one. Owner-
	// goroutine only, which holds because every hook runs on the goroutine
	// of the task it takes the slot from: cmp_node and skip_shuffle run on
	// the queue head's acquirer (the shuffler), schedule_waiter on the
	// waiter itself, and the four events on the acquiring or releasing
	// task. `go test -race` over core and locks checks it.
	fireScratch any

	// execCells is the cache through which this task's decision-tree
	// runs find the counter cell they add to in each program
	// (policy.ExecCells), so that two tasks firing one program write no
	// line in common. Owner-goroutine only, for the reason fireScratch is:
	// a hook runs on the goroutine of the task it counts for.
	execCells any

	// nodeCache holds per-class free lists of lock queue nodes, so a
	// contended acquire reuses the node freed by a previous acquisition
	// instead of heap-allocating (a kernel thread keeps its MCS node on
	// its stack; a goroutine keeps it here). Owner-goroutine only, like
	// hookScratch: nodes are taken on the acquiring path and returned on
	// the path of the same task, so no synchronisation is needed. The
	// cached values are chained through intrusive links the owning lock
	// package manages; this package only stores the list heads.
	nodeCache [MaxNodeClasses]any
}

// New creates a task pinned to a fresh virtual CPU of topo (round-robin).
func New(topo *topology.Topology) *T {
	t := &T{topo: topo}
	t.id = nextID.Add(1)
	// A distinct draw sequence per task; the low bit keeps the xorshift
	// state non-zero.
	t.csDraw = uint64(t.id)*0x9e3779b97f4a7c15 | 1
	t.cpu.Store(int64(topo.AutoPin()))
	t.prio.Store(PrioNormal)
	t.weight.Store(1)
	return t
}

// NewOnCPU creates a task pinned to a specific virtual CPU.
func NewOnCPU(topo *topology.Topology, cpu int) *T {
	t := New(topo)
	t.Migrate(cpu)
	return t
}

// ID returns the task's unique identifier (analogous to a PID).
func (t *T) ID() int64 { return t.id }

// CPU returns the virtual CPU the task currently runs on.
func (t *T) CPU() int { return int(t.cpu.Load()) }

// Socket returns the NUMA node of the task's current CPU.
func (t *T) Socket() int { return t.topo.SocketOf(t.CPU()) }

// Topology returns the topology the task lives on.
func (t *T) Topology() *topology.Topology { return t.topo }

// Migrate moves the task to another virtual CPU.
func (t *T) Migrate(cpu int) {
	if cpu < 0 || cpu >= t.topo.NumCPUs() {
		panic(fmt.Sprintf("task: migrate to invalid cpu %d", cpu))
	}
	t.cpu.Store(int64(cpu))
}

// Speed returns the AMP speed class of the task's current CPU.
func (t *T) Speed() topology.SpeedClass { return t.topo.Speed(t.CPU()) }

// Priority returns the task's scheduling priority (higher is more urgent).
func (t *T) Priority() int64 { return t.prio.Load() }

// SetPriority updates the task's scheduling priority.
func (t *T) SetPriority(p int64) { t.prio.Store(p) }

// BoostPriority raises the priority to at least p and returns the old
// value, for priority-inheritance policies (§3.1.2).
func (t *T) BoostPriority(p int64) (old int64) {
	for {
		old = t.prio.Load()
		if old >= p {
			return old
		}
		if t.prio.CompareAndSwap(old, p) {
			return old
		}
	}
}

// Weight returns the scheduler weight (share) of the task.
func (t *T) Weight() int64 { return t.weight.Load() }

// SetWeight sets the scheduler weight (share) of the task.
func (t *T) SetWeight(w int64) { t.weight.Store(w) }

// --- Held-lock tracking (lock inheritance, §3.1.1) ---

// MaxTrackedLockID is the largest lock ID representable in the held-lock
// mask. Locks with larger IDs are still correct; they are just invisible
// to Holds-based policies.
const MaxTrackedLockID = 63

// NoteAcquired records that the task now holds the lock with the given ID.
// Owner-goroutine only.
func (t *T) NoteAcquired(lockID uint64) {
	if lockID <= MaxTrackedLockID {
		t.heldLocks |= 1 << lockID
	}
}

// NoteReleased records that the task released the lock with the given ID.
// Owner-goroutine only.
func (t *T) NoteReleased(lockID uint64) {
	if lockID <= MaxTrackedLockID {
		t.heldLocks &^= 1 << lockID
	}
}

// Holds reports whether the task currently holds the lock with the given
// ID. Exact on the owner goroutine and on a task reached through a lock
// queue (a shuffler's waiter); any other caller must order the call
// against the owner's writes itself (see heldLocks).
func (t *T) Holds(lockID uint64) bool {
	if lockID > MaxTrackedLockID {
		return false
	}
	return t.heldLocks&(1<<lockID) != 0
}

// HeldMask returns the raw held-lock bitmask, under the same rule as
// Holds: the owner goroutine, or a shuffler reading a waiter it reached
// through its queue (cmp_node's shuffler_held_mask and curr_held_mask).
func (t *T) HeldMask() uint64 { return t.heldLocks }

// HeldCount returns the number of tracked locks currently held, under the
// same rule as Holds.
func (t *T) HeldCount() int {
	n := 0
	for m := t.heldLocks; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// --- Critical-section accounting (scheduler subversion, §3.1.2) ---

// A task has at most one critical section open at a time, tagged with
// the lock whose acquisition opened it. Sections come in two weights:
// exact ones (weight 1), which a lock opens on every acquisition while
// its own hook table subscribes to lock_release, and sampled ones (weight
// csSampleEvery), which every other lock opens on the task's
// 1-in-csSampleEvery draw. A section of length d and weight w adds
// d·w to the total and w to the count, so CSAverage over any mix of the
// two stays an unbiased estimate of the task's true mean section length;
// CSTotal and CSCount are scaled estimates, not tallies.

// csSampleEvery is how many acquisitions of a lock that did not ask for
// exact hold times go by, on average, per timed one — and therefore the
// weight a sampled section is accounted with. An unhooked pair measured
// at 16, 32 and 64 costs the same to within the host's noise (DESIGN §7
// decision 6), so the smallest, whose estimate converges soonest, stays.
const csSampleEvery = 16

// noLock tags a section opened through EnterCS, which names no lock.
const noLock = ^uint64(0)

// SampleCS draws whether the acquisition at hand opens a sampled section:
// it returns the weight to open it with (EnterCSOn) one time in
// csSampleEvery, and 0 otherwise. The draw is a per-task xorshift64*
// step, not a masked counter: lock traffic is near-periodic, and a task
// alternating a short and a long lock would put one of them on every
// counted acquisition and the other on none (DESIGN §8 makes the same
// argument for the profiler). Owner-goroutine only.
func (t *T) SampleCS() int64 {
	x := t.csDraw
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.csDraw = x
	if ((x*0x2545f4914f6cdd1d)>>32)%csSampleEvery != 0 {
		return 0
	}
	return csSampleEvery
}

// EnterCSOn opens lockID's critical section at the given timestamp
// (nanoseconds on whichever clock the caller uses), to be accounted with
// the given weight: 1, or what SampleCS returned. It replaces a section
// still open, whose lock's release then finds nothing to close.
// Owner-goroutine only.
func (t *T) EnterCSOn(lockID uint64, nowNS, weight int64) {
	t.csStartNS, t.csLockID, t.csWeight = nowNS, lockID, weight
}

// EnterCS opens an exact critical section that belongs to no lock.
// Owner-goroutine only.
func (t *T) EnterCS(nowNS int64) { t.EnterCSOn(noLock, nowNS, 1) }

// CSOpenOn reports whether the open critical section is lockID's: whether
// its release has a section to close, and so a reason to read the clock.
// Owner-goroutine only.
func (t *T) CSOpenOn(lockID uint64) bool {
	return t.csStartNS != 0 && t.csLockID == lockID
}

// ExitCS closes the open critical section, accumulates its length at its
// weight and returns the length. With no section open it accumulates
// nothing and returns 0 (unknown). Owner-goroutine only.
func (t *T) ExitCS(nowNS int64) int64 {
	start := t.csStartNS
	if start == 0 {
		return 0
	}
	d := nowNS - start
	if d < 0 {
		d = 0
	}
	t.csStartNS = 0
	t.csLastNS.Store(d)
	t.csTotalNS.Add(d * t.csWeight)
	t.csCount.Add(t.csWeight)
	return d
}

// CSTotal estimates the cumulative time the task has spent in critical
// sections: exact sections at their length, sampled ones scaled by their
// weight.
func (t *T) CSTotal() int64 { return t.csTotalNS.Load() }

// CSCount estimates how many critical sections the task has completed
// (a sampled section counts for csSampleEvery).
func (t *T) CSCount() int64 { return t.csCount.Load() }

// CSLast returns the duration of the most recent timed critical section.
func (t *T) CSLast() int64 { return t.csLastNS.Load() }

// --- Per-task lock-node caches (alloc-free queue locks) ---

// MaxNodeClasses bounds how many distinct node cache classes can be
// registered process-wide. Each queue-lock node type claims one class at
// package init: ShflLock's queue node and RWSem's waiter take two, and
// the rest are headroom. The bound sizes task.T, so lowering it changes
// the task's layout.
const MaxNodeClasses = 8

var nodeClasses atomic.Int32

// AllocNodeClass reserves a new node-cache class ID. Called from package
// init of the lock implementations (before any task exists), so class
// IDs are stable for the process lifetime.
func AllocNodeClass() int {
	c := nodeClasses.Add(1) - 1
	if int(c) >= MaxNodeClasses {
		panic("task: node cache classes exhausted; raise MaxNodeClasses")
	}
	return int(c)
}

// TakeNode removes and returns the head of the task's node free list for
// class (nil if empty). Owner-goroutine only.
func (t *T) TakeNode(class int) any {
	n := t.nodeCache[class]
	t.nodeCache[class] = nil
	return n
}

// PutNode stores n as the new head of the class free list. Owner-
// goroutine only; the caller chains the previous head into n before
// storing if it wants a list deeper than one.
func (t *T) PutNode(class int, n any) { t.nodeCache[class] = n }

// TakeScratch removes and returns the task's scratch value (nil if
// absent or already taken). Taking rather than borrowing keeps nested
// use safe: a reentrant caller sees nil and falls back to allocating.
// Owner-goroutine only.
func (t *T) TakeScratch() any {
	s := t.hookScratch
	t.hookScratch = nil
	return s
}

// PutScratch stashes a value for the next TakeScratch on this task.
// Owner-goroutine only.
func (t *T) PutScratch(s any) { t.hookScratch = s }

// TakeFireScratch removes and returns the task's hook-fire scratch (nil
// if absent or already taken, so a reentrant fire allocates its own).
// Owner-goroutine only.
func (t *T) TakeFireScratch() any {
	s := t.fireScratch
	t.fireScratch = nil
	return s
}

// PutFireScratch stashes a value for the next TakeFireScratch on this
// task. Owner-goroutine only.
func (t *T) PutFireScratch(s any) { t.fireScratch = s }

// ExecCells returns what SetExecCells stashed (nil if nothing was).
// Owner-goroutine only.
func (t *T) ExecCells() any { return t.execCells }

// SetExecCells stashes the task's execution-counter cache. Owner-goroutine
// only.
func (t *T) SetExecCells(c any) { t.execCells = c }

// CSAverage estimates the task's mean critical-section length, or returns
// 0 if no section of the task has been timed yet. Exact when every lock
// the task takes subscribes to lock_release; otherwise the weighted mean
// over the timed sections, which is unbiased.
func (t *T) CSAverage() int64 {
	n := t.csCount.Load()
	if n == 0 {
		return 0
	}
	return t.csTotalNS.Load() / n
}

// --- vCPU scheduling info (§3.1.1, "Exposing scheduler semantics") ---

// SetQuota records the remaining running-time quota the hypervisor has
// granted this task's vCPU.
func (t *T) SetQuota(ns int64) { t.quotaNS.Store(ns) }

// Quota returns the remaining vCPU time quota.
func (t *T) Quota() int64 { return t.quotaNS.Load() }

// SetPreempted marks whether the task's vCPU is currently scheduled out.
func (t *T) SetPreempted(p bool) { t.preempted.Store(p) }

// Preempted reports whether the task's vCPU is currently scheduled out.
func (t *T) Preempted() bool { return t.preempted.Load() }

// String implements fmt.Stringer.
func (t *T) String() string {
	return fmt.Sprintf("task(id=%d cpu=%d socket=%d prio=%d)", t.ID(), t.CPU(), t.Socket(), t.Priority())
}
