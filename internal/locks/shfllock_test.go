package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/task"
	"concord/internal/topology"
)

// isTail reports whether tk's queue node is l's tail: tk's queue position
// is fixed and nobody has queued behind it yet. Neither lock_contended nor
// QueueLen says that much, since both move before the tail swap, so a task
// that arrives later can still swap in ahead of the one that raised them.
// Valid while tk waits: a node changes task only when a task reuses it.
func isTail(l *ShflLock, tk *task.T) bool {
	n := l.tail.Load()
	return n != nil && n.Task == tk
}

// queueWaiters starts one goroutine per task that takes and releases l,
// and returns once the last has queued, each behind the one before it.
// cs, if not nil, runs inside each critical section with the task's
// index. The caller holds l and waits on the group after releasing it.
func queueWaiters(l *ShflLock, cs func(i int), tasks ...*task.T) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i, tk := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock(tk)
			if cs != nil {
				cs(i)
			}
			l.Unlock(tk)
		}()
		for !isTail(l, tk) {
			runtime.Gosched()
		}
	}
	return &wg
}

func TestShflLockNUMAGrouping(t *testing.T) {
	topo := topology.Paper() // 8 sockets × 10 CPUs
	l := NewShflLock("numa", WithMaxRounds(64), WithMaxScan(32))

	holder := task.New(topo)
	l.Lock(holder)

	// 16 waiters alternating between two sockets.
	tasks := make([]*task.T, 16)
	for i := range tasks {
		tasks[i] = task.NewOnCPU(topo, (i%2)*10) // socket 0 or 1
	}
	var order []int
	wg := queueWaiters(l, func(i int) { order = append(order, i) }, tasks...)
	// Attach the policy only now that every waiter is queued. Rounds are
	// counted per acquisition from the moment a policy is attached: with
	// it installed up front, the head could spend all 64 on a queue of
	// one or two while the other goroutines were still starting, and then
	// never move anybody however long the holder waited.
	l.HookSlot().Replace("numa", NUMAHooks())
	// Keep holding until the head waiter has shuffled the queue:
	// shuffling happens while the head spins on the held lock word. Seven
	// waiters share the head's socket and at most one of them is the
	// untouchable tail, so its first round over the linked queue moves
	// somebody; wait on the counter, and if it never moves say what the
	// shuffler did instead of hanging until the binary's deadline.
	for deadline := time.Now().Add(30 * time.Second); ; {
		rounds, moves, skips := l.ShuffleStats()
		if moves > 0 {
			break
		}
		if time.Now().After(deadline) {
			l.Unlock(holder)
			wg.Wait()
			t.Fatalf("shuffler never moved a node: rounds=%d moves=%d skips=%d, queue was %d",
				rounds, moves, skips, len(tasks))
		}
		runtime.Gosched()
	}
	l.Unlock(holder)
	wg.Wait()

	if len(order) != len(tasks) {
		t.Fatalf("got %d acquisitions, want %d", len(order), len(tasks))
	}
	// Count socket transitions in acquisition order. Interleaved FIFO
	// would give ~15 transitions; NUMA grouping must do clearly better.
	transitions := 0
	for i := 1; i < len(order); i++ {
		if tasks[order[i]].Socket() != tasks[order[i-1]].Socket() {
			transitions++
		}
	}
	rounds, moves, _ := l.ShuffleStats()
	if moves == 0 {
		t.Fatalf("shuffler never moved a node (rounds=%d)", rounds)
	}
	if transitions >= len(tasks)-1 {
		t.Errorf("no grouping: %d socket transitions in %v", transitions, order)
	}
	t.Logf("socket transitions: %d, shuffle rounds: %d, moves: %d", transitions, rounds, moves)
	if got := l.SafetyError(); got != "" {
		t.Errorf("safety tripped: %s", got)
	}
}

func TestShflLockFIFOWithoutPolicy(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("fifo")
	holder := task.New(topo)
	l.Lock(holder)
	tasks := make([]*task.T, 8)
	for i := range tasks {
		tasks[i] = task.New(topo)
	}
	var order []int
	wg := queueWaiters(l, func(i int) { order = append(order, i) }, tasks...)
	l.Unlock(holder)
	wg.Wait()
	rounds, moves, _ := l.ShuffleStats()
	if rounds != 0 || moves != 0 {
		t.Errorf("shuffling without policy: rounds=%d moves=%d", rounds, moves)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("acquisition order %v, want queue order", order)
		}
	}
}

func TestShflLockAdversarialPolicyStillLive(t *testing.T) {
	// A policy that always says "move" must not break liveness or lose
	// waiters: the batch simply extends in order.
	topo := topology.Paper()
	l := NewShflLock("adversarial", WithMaxRounds(1024))
	l.HookSlot().Replace("always", &Hooks{
		Name:    "always",
		CmpNode: func(*ShuffleInfo) bool { return true },
	})
	exerciseMutex(t, l, topo, 8, 200)
	if got := l.SafetyError(); got != "" {
		t.Errorf("safety tripped: %s", got)
	}
}

func TestShflLockStarvationBound(t *testing.T) {
	// A policy that always favours even-socket waiters: odd-socket
	// waiters must still complete thanks to the bypass budget.
	topo := topology.Paper()
	evenFirst := &Hooks{
		Name: "evenfirst",
		CmpNode: func(info *ShuffleInfo) bool {
			return info.Curr.Task.Socket()%2 == 0
		},
	}

	// One odd-socket waiter queued right behind the head, twenty
	// even-socket ones behind it: exactly shflBypassBudget of those may
	// overtake it, and then shuffling stops on its behalf.
	l := NewShflLock("budget", WithMaxRounds(1024))
	holder := task.NewOnCPU(topo, 0)
	l.Lock(holder)
	tasks := []*task.T{task.NewOnCPU(topo, 0), task.NewOnCPU(topo, 10)}
	for range 20 {
		tasks = append(tasks, task.NewOnCPU(topo, 0))
	}
	var order []int
	wg := queueWaiters(l, func(i int) { order = append(order, i) }, tasks...)
	l.HookSlot().Replace("evenfirst", evenFirst).Wait()
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		if _, moves, _ := l.ShuffleStats(); moves >= shflBypassBudget || time.Now().After(deadline) {
			break
		}
	}
	l.Unlock(holder)
	wg.Wait()
	overtook := 0
	for _, i := range order {
		if i == 1 {
			break
		}
		if i > 1 {
			overtook++
		}
	}
	if overtook != shflBypassBudget {
		t.Errorf("%d later waiters overtook the odd-socket one, want %d: order %v", overtook, shflBypassBudget, order)
	}

	// Starvation would keep an odd-socket waiter queued forever: the run
	// never finishes and the test binary's deadline reports the hang with
	// a full goroutine dump — strictly more diagnosable than a local
	// wall-clock bound that flakes on slow machines.
	l = NewShflLock("starve", WithMaxRounds(1024))
	l.HookSlot().Replace("evenfirst", evenFirst)
	exerciseMutex(t, l, topo, 10, 200)
}

func TestShflLockScheduleWaiterHookConsulted(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("sw", WithBlocking(true), WithSpinBudget(1))
	var consulted atomic.Int64
	l.HookSlot().Replace("spin", &Hooks{
		Name: "spin",
		ScheduleWaiter: func(info *WaitInfo) int {
			consulted.Add(1)
			return WaitKeepSpinning
		},
	})
	// A waiter queued behind the head asks schedule_waiter on every round
	// of its wait for promotion: hold the lock until the second of two
	// waiters has asked. Under contention alone that is likely, not sure.
	holder := task.New(topo)
	l.Lock(holder)
	wg := queueWaiters(l, nil, task.New(topo), task.New(topo))
	for deadline := time.Now().Add(30 * time.Second); consulted.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			l.Unlock(holder)
			wg.Wait()
			t.Fatal("schedule_waiter never consulted by a queued waiter")
		}
	}
	l.Unlock(holder)
	wg.Wait()
	// Waiters told to keep spinning still get through.
	exerciseMutex(t, l, topo, 4, 50)
}

func TestShflLockParkNowDecision(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("park", WithBlocking(true), WithSpinBudget(1<<30))
	var parked atomic.Int64
	l.HookSlot().Replace("park", &Hooks{
		Name: "park",
		ScheduleWaiter: func(info *WaitInfo) int {
			parked.Add(1)
			return WaitParkNow
		},
	})
	// Only a waiter queued behind the head asks schedule_waiter: hold the
	// lock until the second of two waiters is queued and has asked.
	holder := task.New(topo)
	l.Lock(holder)
	wg := queueWaiters(l, nil, task.New(topo), task.New(topo))
	for deadline := time.Now().Add(30 * time.Second); parked.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			break
		}
	}
	l.Unlock(holder)
	wg.Wait()
	if parked.Load() == 0 {
		t.Error("waiters never hit the park decision")
	}
	// Parked waiters are woken and get through.
	exerciseMutex(t, l, topo, 4, 50)
}

func TestShflLockSkipShuffle(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("skip", WithMaxRounds(1024))
	l.HookSlot().Replace("skipall", &Hooks{
		Name:        "skipall",
		CmpNode:     func(*ShuffleInfo) bool { return true },
		SkipShuffle: func(*ShuffleInfo) bool { return true },
	})
	// The queue head asks skip_shuffle before each attempt on the lock
	// word: hold the lock until a queued waiter has asked.
	holder := task.New(topo)
	l.Lock(holder)
	wg := queueWaiters(l, nil, task.New(topo), task.New(topo))
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		if _, _, skips := l.ShuffleStats(); skips > 0 || time.Now().After(deadline) {
			break
		}
	}
	l.Unlock(holder)
	wg.Wait()
	exerciseMutex(t, l, topo, 6, 100)
	_, moves, skips := l.ShuffleStats()
	if moves != 0 {
		t.Errorf("moves = %d despite skip_shuffle", moves)
	}
	if skips == 0 {
		t.Error("skip_shuffle never fired")
	}
}

func TestShflLockDisablePolicyQuarantine(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("q")
	var fired atomic.Int64
	l.HookSlot().Replace("h", &Hooks{
		Name:       "h",
		OnAcquired: func(*Event) { fired.Add(1) },
	})
	tk := task.New(topo)
	l.Lock(tk)
	l.Unlock(tk)
	if fired.Load() != 1 {
		t.Fatalf("hook fired %d times, want 1", fired.Load())
	}
	l.disablePolicy("test quarantine")
	l.Lock(tk)
	l.Unlock(tk)
	if fired.Load() != 1 {
		t.Errorf("hook fired after quarantine")
	}
	if l.SafetyError() != "test quarantine" {
		t.Errorf("SafetyError = %q", l.SafetyError())
	}
	l.ResetSafety()
	l.Lock(tk)
	l.Unlock(tk)
	if fired.Load() != 2 {
		t.Errorf("hook did not fire after ResetSafety")
	}
}

func TestShflLockHolderTracking(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("holder")
	tk := task.New(topo)
	if l.Holder() != nil {
		t.Fatal("free lock has holder")
	}
	l.Lock(tk)
	if l.Holder() != tk {
		t.Fatal("holder not tracked")
	}
	l.Unlock(tk)
	if l.Holder() != nil {
		t.Fatal("holder survived unlock")
	}
}

// TestShflLockHolderIsExact: the lock word names its holder, so Holder()
// is the task itself from the CAS that takes the lock to the store that
// frees it — inside the critical section and inside the lock_acquired and
// lock_release hooks it raises — on the fast path, the queue path and
// TryLock alike, and never the task once its Unlock has returned.
func TestShflLockHolderIsExact(t *testing.T) {
	const tasks, iters = 4, 500
	topo := testTopo()
	for _, hooked := range []bool{false, true} {
		name := "unhooked"
		if hooked {
			name = "hooked"
		}
		t.Run(name, func(t *testing.T) {
			l := NewShflLock("holder")
			var wrong, acquisitions, events, queued atomic.Int64
			if hooked {
				check := func(ev *Event) {
					events.Add(1)
					if l.Holder() != ev.Task {
						wrong.Add(1)
					}
				}
				l.HookSlot().Replace("check", &Hooks{
					OnContended: func(*Event) { queued.Add(1) },
					OnAcquired:  check,
					OnRelease:   check,
				}).Wait()
			}
			var wg sync.WaitGroup
			for range tasks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tk := task.New(topo)
					for j := range iters {
						if j%4 == 3 {
							if !l.TryLock(tk) {
								continue
							}
						} else {
							l.Lock(tk)
						}
						acquisitions.Add(1)
						if l.Holder() != tk {
							wrong.Add(1)
						}
						if j%8 == 0 {
							runtime.Gosched() // let a queue form
						}
						l.Unlock(tk)
						if l.Holder() == tk {
							wrong.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if n := wrong.Load(); n != 0 {
				t.Errorf("Holder() named the wrong task %d times", n)
			}
			if hooked && events.Load() != 2*acquisitions.Load() {
				t.Errorf("%d hook events for %d acquisitions, want two each", events.Load(), acquisitions.Load())
			}
			if hooked && queued.Load() == 0 {
				t.Errorf("no acquisition took the queue path")
			}
			if h := l.Holder(); h != nil {
				t.Errorf("Holder() = %v on a free lock", h)
			}
		})
	}
}

// TestShflLockUnlockNotHeldPanics: an Unlock by a task that does not hold
// the lock panics before it frees anything, as RWSem's does.
func TestShflLockUnlockNotHeldPanics(t *testing.T) {
	topo := testTopo()
	l := NewShflLock("unheld")
	a, b := task.New(topo), task.New(topo)
	mustPanic(t, func() { l.Unlock(a) })
	l.Lock(a)
	mustPanic(t, func() { l.Unlock(b) })
	if l.Holder() != a || l.TryLock(b) {
		t.Fatalf("a foreign Unlock freed the lock: holder %v", l.Holder())
	}
	l.Unlock(a)
	if l.Holder() != nil {
		t.Errorf("holder %v after the holder's Unlock", l.Holder())
	}
}

func TestPriorityInheritance(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("pi")
	l.HookSlot().Replace("pi", PriorityInheritanceHooks(l))

	low := task.New(topo)
	low.SetPriority(task.PrioLow)
	high := task.New(topo)
	high.SetPriority(task.PrioHigh)

	l.Lock(low)
	// A high-priority task contends: the holder must be boosted.
	go func() {
		l.Lock(high)
		l.Unlock(high)
	}()
	// The boost happens when the contender enqueues; wait on the priority
	// itself (a hang means the boost never fires and the binary's
	// deadline reports it).
	for low.Priority() != task.PrioHigh {
		runtime.Gosched()
	}
	l.Unlock(low)
	// The boost is undone at release.
	if low.Priority() != task.PrioLow {
		t.Errorf("priority after release = %d, want restored %d", low.Priority(), task.PrioLow)
	}
	// Let the high task finish.
	for l.Holder() != nil {
		runtime.Gosched()
	}
}
