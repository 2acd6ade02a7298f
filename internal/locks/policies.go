package locks

import (
	"sync"

	"concord/internal/task"
)

// Native (compiled-in Go) policy hook tables. These are the
// "pre-compiled versions of the same locks" that the paper's evaluation
// compares Concord against (§5): each corresponds to a policy that can
// equally be expressed as a verified cBPF program and attached through
// the framework. Keeping both lets the benchmarks isolate the cost of
// the policy *mechanism* from the policy itself.

// FIFOHooks returns an empty hook table: strict queue order, no
// shuffling. Attaching it is equivalent to detaching policies.
func FIFOHooks() *Hooks { return &Hooks{Name: "fifo"} }

// NUMAHooks groups waiters from the shuffler's socket together (the
// ShflLock paper's flagship policy; the one used for Figure 2(b)).
func NUMAHooks() *Hooks {
	return &Hooks{
		Name: "numa",
		CmpNode: func(info *ShuffleInfo) bool {
			return info.Curr.Task.Socket() == info.Shuffler.Task.Socket()
		},
	}
}

// InheritanceHooks prioritizes waiters that already hold other locks
// (lock inheritance, §3.1.1): a task deep in a multi-lock operation is
// holding everyone else back, so it is moved toward the head of this
// lock's queue.
func InheritanceHooks() *Hooks {
	return &Hooks{
		Name: "inheritance",
		CmpNode: func(info *ShuffleInfo) bool {
			return info.Curr.Task.HeldCount() > info.Shuffler.Task.HeldCount()
		},
	}
}

// AMPHooks prefers waiters running on fast cores (task-fair locks on
// asymmetric multicore processors, §3.1.2): handing the lock to slow
// cores last keeps critical-section throughput high.
func AMPHooks() *Hooks {
	return &Hooks{
		Name: "amp",
		CmpNode: func(info *ShuffleInfo) bool {
			return info.Curr.Task.Speed() > info.Shuffler.Task.Speed()
		},
	}
}

// SCLHooks approximates scheduler-cooperative locking (Patel et al.,
// EuroSys '20; §3.1.2): waiters whose average critical section is
// shorter than the shuffler's are grouped first, so lock hogs cannot
// subvert scheduling goals.
func SCLHooks() *Hooks {
	return &Hooks{
		Name: "scl",
		CmpNode: func(info *ShuffleInfo) bool {
			return info.Curr.Task.CSAverage() < info.Shuffler.Task.CSAverage()
		},
	}
}

// SpinThenParkHooks exposes the adaptable parking strategy (§3.1.1):
// waiters keep spinning while their wait is below spinNS and park beyond
// parkNS, with the lock's default in between.
func SpinThenParkHooks(spinNS, parkNS int64) *Hooks {
	return &Hooks{
		Name: "spin-then-park",
		ScheduleWaiter: func(info *WaitInfo) int {
			switch {
			case info.SpinNS < spinNS:
				return WaitKeepSpinning
			case info.SpinNS >= parkNS:
				return WaitParkNow
			default:
				return WaitDefault
			}
		},
	}
}

// ComposeHooks merges two tables: decision hooks (cmp_node, skip_shuffle,
// schedule_waiter) come from primary when present, otherwise secondary;
// profiling callbacks are chained so both observe every event. This is
// the simple, conflict-free subset of policy composition; the framework
// layer adds conflict detection on top (§6 "Composing policies").
func ComposeHooks(primary, secondary *Hooks) *Hooks {
	if primary == nil {
		return secondary
	}
	if secondary == nil {
		return primary
	}
	out := &Hooks{Name: primary.Name + "+" + secondary.Name}

	out.CmpNode = primary.CmpNode
	if out.CmpNode == nil {
		out.CmpNode = secondary.CmpNode
	}
	out.SkipShuffle = primary.SkipShuffle
	if out.SkipShuffle == nil {
		out.SkipShuffle = secondary.SkipShuffle
	}
	out.ScheduleWaiter = primary.ScheduleWaiter
	if out.ScheduleWaiter == nil {
		out.ScheduleWaiter = secondary.ScheduleWaiter
	}

	chain := func(a, b func(ev *Event)) func(ev *Event) {
		switch {
		case a == nil:
			return b
		case b == nil:
			return a
		default:
			return func(ev *Event) { a(ev); b(ev) }
		}
	}
	out.OnAcquire = chain(primary.OnAcquire, secondary.OnAcquire)
	out.OnContended = chain(primary.OnContended, secondary.OnContended)
	out.OnAcquired = chain(primary.OnAcquired, secondary.OnAcquired)
	out.OnRelease = chain(primary.OnRelease, secondary.OnRelease)
	// One OnAcquired that reads the stamp is enough to need it.
	out.AcquiredNoNow = (primary.OnAcquired == nil || primary.AcquiredNoNow) &&
		(secondary.OnAcquired == nil || secondary.AcquiredNoNow)
	return out
}

// PriorityInheritanceHooks returns a hook table implementing priority
// inheritance for one ShflLock (§3.1.2, after Kim et al.'s I/O-stack
// anomaly): when a waiter with higher scheduling priority than the
// current holder arrives, the holder is boosted to the waiter's
// priority; the boost is undone when that holder releases the lock.
func PriorityInheritanceHooks(l *ShflLock) *Hooks {
	type boost struct {
		task *task.T
		orig int64
	}
	var mu sync.Mutex
	var active *boost
	return &Hooks{
		Name: "priority-inheritance",
		OnContended: func(ev *Event) {
			holder := l.Holder()
			if holder == nil || ev.Task == nil {
				return
			}
			want := ev.Task.Priority()
			if want <= holder.Priority() {
				return
			}
			mu.Lock()
			if active == nil {
				active = &boost{task: holder, orig: holder.Priority()}
			}
			mu.Unlock()
			holder.BoostPriority(want)
		},
		OnRelease: func(ev *Event) {
			mu.Lock()
			if active != nil && active.task == ev.Task {
				ev.Task.SetPriority(active.orig)
				active = nil
			}
			mu.Unlock()
		},
	}
}
