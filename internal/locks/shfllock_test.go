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

// buildQueue launches n waiters against a held lock and blocks until all
// are queued, returning a function that records acquisition order.
func buildQueue(t *testing.T, l *ShflLock, topo *topology.Topology, tasks []*task.T) (order *[]int, done *sync.WaitGroup) {
	t.Helper()
	var mu sync.Mutex
	ord := make([]int, 0, len(tasks))
	var wg sync.WaitGroup
	var queued atomic.Int32
	for i, tk := range tasks {
		wg.Add(1)
		go func(i int, tk *task.T) {
			defer wg.Done()
			queued.Add(1)
			l.Lock(tk)
			mu.Lock()
			ord = append(ord, i)
			mu.Unlock()
			l.Unlock(tk)
		}(i, tk)
	}
	// Wait until every waiter is actually in the queue (or the fast-path
	// barger has at least started). QueueLen is what the lock maintains —
	// a semantic signal, so no wall-clock deadline: if a waiter never
	// queues, the test hangs and the binary's deadline dumps goroutines.
	for l.QueueLen() < len(tasks) {
		runtime.Gosched()
	}
	return &ord, &wg
}

func TestShflLockNUMAGrouping(t *testing.T) {
	topo := topology.Paper() // 8 sockets × 10 CPUs
	l := NewShflLock("numa", WithMaxRounds(64), WithMaxScan(32), WithMaxBatch(32))

	holder := task.New(topo)
	l.Lock(holder)

	// 16 waiters alternating between two sockets.
	tasks := make([]*task.T, 16)
	for i := range tasks {
		tasks[i] = task.NewOnCPU(topo, (i%2)*10) // socket 0 or 1
	}
	order, wg := buildQueue(t, l, topo, tasks)
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

	if len(*order) != len(tasks) {
		t.Fatalf("got %d acquisitions, want %d", len(*order), len(tasks))
	}
	// Count socket transitions in acquisition order. Interleaved FIFO
	// would give ~15 transitions; NUMA grouping must do clearly better.
	transitions := 0
	for i := 1; i < len(*order); i++ {
		if tasks[(*order)[i]].Socket() != tasks[(*order)[i-1]].Socket() {
			transitions++
		}
	}
	rounds, moves, _ := l.ShuffleStats()
	if moves == 0 {
		t.Fatalf("shuffler never moved a node (rounds=%d)", rounds)
	}
	if transitions >= len(tasks)-1 {
		t.Errorf("no grouping: %d socket transitions in %v", transitions, *order)
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
	_, wg := buildQueue(t, l, topo, tasks)
	l.Unlock(holder)
	wg.Wait()
	rounds, moves, _ := l.ShuffleStats()
	if rounds != 0 || moves != 0 {
		t.Errorf("shuffling without policy: rounds=%d moves=%d", rounds, moves)
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
	l := NewShflLock("starve", WithBypassBudget(4), WithMaxRounds(1024))
	l.HookSlot().Replace("evenfirst", &Hooks{
		Name: "evenfirst",
		CmpNode: func(info *ShuffleInfo) bool {
			return info.Curr.Task.Socket()%2 == 0
		},
	})
	// Starvation would keep an odd-socket waiter queued forever: the run
	// never finishes and the test binary's deadline reports the hang with
	// a full goroutine dump — strictly more diagnosable than a local
	// wall-clock bound that flakes on slow machines.
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
	exerciseMutex(t, l, topo, 4, 50)
	if consulted.Load() == 0 {
		t.Error("schedule_waiter never consulted")
	}
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
	exerciseMutex(t, l, topo, 4, 50)
	if parked.Load() == 0 {
		t.Error("waiters never hit the park decision")
	}
}

func TestShflLockSkipShuffle(t *testing.T) {
	topo := topology.Paper()
	l := NewShflLock("skip", WithMaxRounds(1024))
	l.HookSlot().Replace("skipall", &Hooks{
		Name:        "skipall",
		CmpNode:     func(*ShuffleInfo) bool { return true },
		SkipShuffle: func(*ShuffleInfo) bool { return true },
	})
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

func TestCNALockPromotes(t *testing.T) {
	topo := topology.Paper()
	l := NewCNALock("cna", 16, 64)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := task.NewOnCPU(topo, (w%4)*10) // four sockets
			for i := 0; i < 200; i++ {
				l.Lock(tk)
				if i&3 == 0 {
					runtime.Gosched()
				}
				l.Unlock(tk)
			}
		}(w)
	}
	wg.Wait()
	t.Logf("CNA promotions: %d", l.Promotions())
}

func TestCohortLockBatching(t *testing.T) {
	topo := topology.New(2, 4)
	l := NewCohortLock("cohort", topo, 4)
	// Socket-ordered handoff under contention; correctness is covered by
	// the mutual-exclusion harness, here we check cross-socket progress.
	var wg sync.WaitGroup
	var acquisitions [2]atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := task.NewOnCPU(topo, (w%2)*4)
			for i := 0; i < 200; i++ {
				l.Lock(tk)
				acquisitions[tk.Socket()].Add(1)
				if i&3 == 0 {
					runtime.Gosched()
				}
				l.Unlock(tk)
			}
		}(w)
	}
	wg.Wait()
	if acquisitions[0].Load() != 800 || acquisitions[1].Load() != 800 {
		t.Errorf("acquisitions = %d/%d, want 800/800",
			acquisitions[0].Load(), acquisitions[1].Load())
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
