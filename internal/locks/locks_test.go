package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"concord/internal/task"
	"concord/internal/topology"
)

// exerciseMutex hammers a lock from several goroutines and checks mutual
// exclusion plus the final count. The unsynchronized counter is the
// point: if exclusion is broken the race detector and the inCS assertion
// both catch it.
func exerciseMutex(t *testing.T, l Lock, topo *topology.Topology, workers, iters int) {
	t.Helper()
	var counter int
	var inCS atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			for i := 0; i < iters; i++ {
				l.Lock(tk)
				if inCS.Add(1) != 1 {
					t.Error("mutual exclusion violated")
				}
				counter++
				if i&7 == 0 {
					// Yield inside the critical section so workers
					// interleave even on a single-CPU host.
					runtime.Gosched()
				}
				inCS.Add(-1)
				l.Unlock(tk)
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d", counter, workers*iters)
	}
}

func testTopo() *topology.Topology { return topology.New(4, 4) }

func TestMutualExclusionAllLocks(t *testing.T) {
	topo := testTopo()
	cases := []struct {
		name string
		lock Lock
	}{
		{"tas", NewTASLock("tas")},
		{"ttas", NewTTASLock("ttas")},
		{"ticket", NewTicketLock("ticket")},
		{"qspin", NewQSpinLock("qspin")},
		{"mcs", NewMCSLock("mcs")},
		{"clh", NewCLHLock("clh")},
		{"cohort", NewCohortLock("cohort", topo, 8)},
		{"cna", NewCNALock("cna", 8, 16)},
		{"shfl", NewShflLock("shfl")},
		{"shfl-blocking", NewShflLock("shflb", WithBlocking(true), WithSpinBudget(8))},
		{"shfl-numa", withHooks(NewShflLock("shfln"), NUMAHooks())},
		{"rwsem-writer", NewRWSem("rwsem")},
		{"persocket-writer", NewPerSocketRWLock("psw", topo)},
		{"shflrw-writer", NewShflRWLock("srw")},
		{"bravo-writer", NewBRAVO("bravo", NewRWSem("under"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exerciseMutex(t, tc.lock, topo, 8, 300)
		})
	}
}

// withHooks attaches a native hook table to a hooked lock.
func withHooks[L Hooked](l L, h *Hooks) L {
	l.HookSlot().Replace(h.Name, h)
	return l
}

func TestTryLockSemantics(t *testing.T) {
	topo := testTopo()
	locksUnderTest := []Lock{
		NewTASLock("tas"),
		NewTTASLock("ttas"),
		NewTicketLock("ticket"),
		NewQSpinLock("qspin"),
		NewMCSLock("mcs"),
		NewCLHLock("clh"),
		NewCohortLock("cohort", topo, 8),
		NewCNALock("cna", 8, 16),
		NewShflLock("shfl"),
		NewRWSem("rwsem"),
		NewPerSocketRWLock("ps", topo),
		NewShflRWLock("srw"),
		NewBRAVO("bravo", NewRWSem("under")),
	}
	for _, l := range locksUnderTest {
		t.Run(l.Name(), func(t *testing.T) {
			t1 := task.New(topo)
			t2 := task.New(topo)
			if !l.TryLock(t1) {
				t.Fatal("TryLock on free lock failed")
			}
			if l.TryLock(t2) {
				t.Fatal("TryLock on held lock succeeded")
			}
			l.Unlock(t1)
			if !l.TryLock(t2) {
				t.Fatal("TryLock after unlock failed")
			}
			l.Unlock(t2)
		})
	}
}

func TestTicketLockIsFIFO(t *testing.T) {
	topo := testTopo()
	l := NewTicketLock("fifo")
	holder := task.New(topo)
	l.Lock(holder)

	const n = 6
	var mu sync.Mutex
	var order []int
	var started sync.WaitGroup
	var done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			tk := task.New(topo)
			started.Done()
			<-release
			l.Lock(tk)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Unlock(tk)
		}(i)
	}
	started.Wait()
	close(release)
	l.Unlock(holder)
	done.Wait()
	if len(order) != n {
		t.Fatalf("only %d acquisitions", len(order))
	}
	// Strict FIFO relative to ticket draw order is not observable from
	// outside, but every waiter must get exactly one turn.
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate acquisition by %d", v)
		}
		seen[v] = true
	}
}

// exerciseRW checks reader parallelism and writer exclusion.
func exerciseRW(t *testing.T, l RWLock, topo *topology.Topology) {
	t.Helper()
	var data int
	var readersIn atomic.Int32
	var writersIn atomic.Int32
	var maxReaders atomic.Int32
	var wg sync.WaitGroup

	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			for i := 0; i < 200; i++ {
				l.RLock(tk)
				r := readersIn.Add(1)
				for {
					m := maxReaders.Load()
					if r <= m || maxReaders.CompareAndSwap(m, r) {
						break
					}
				}
				if writersIn.Load() != 0 {
					t.Error("reader overlaps writer")
				}
				_ = data
				readersIn.Add(-1)
				l.RUnlock(tk)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			for i := 0; i < 100; i++ {
				l.Lock(tk)
				if writersIn.Add(1) != 1 {
					t.Error("writer overlaps writer")
				}
				if readersIn.Load() != 0 {
					t.Error("writer overlaps reader")
				}
				data++
				writersIn.Add(-1)
				l.Unlock(tk)
			}
		}()
	}
	wg.Wait()
	if data != 200 {
		t.Errorf("writer increments = %d, want 200", data)
	}
}

func TestRWLockSemantics(t *testing.T) {
	topo := testTopo()
	cases := []struct {
		name string
		lock RWLock
	}{
		{"rwsem", NewRWSem("rwsem")},
		{"persocket", NewPerSocketRWLock("ps", topo)},
		{"shflrw", NewShflRWLock("srw")},
		{"bravo-rwsem", NewBRAVO("bravo", NewRWSem("under"))},
		{"bravo-persocket", NewBRAVO("bravo2", NewPerSocketRWLock("ps2", topo))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exerciseRW(t, tc.lock, topo)
		})
	}
}

func TestRWSemTryRLock(t *testing.T) {
	topo := testTopo()
	s := NewRWSem("s")
	r1, r2, w := task.New(topo), task.New(topo), task.New(topo)
	if !s.TryRLock(r1) || !s.TryRLock(r2) {
		t.Fatal("parallel TryRLock failed")
	}
	if s.TryLock(w) {
		t.Fatal("TryLock succeeded with readers in")
	}
	s.RUnlock(r1)
	s.RUnlock(r2)
	if !s.TryLock(w) {
		t.Fatal("TryLock failed on free sem")
	}
	if s.TryRLock(r1) {
		t.Fatal("TryRLock succeeded with writer in")
	}
	s.Unlock(w)
}

func TestRWSemUnlockPanics(t *testing.T) {
	topo := testTopo()
	s := NewRWSem("s")
	tk := task.New(topo)
	mustPanic(t, func() { s.Unlock(tk) })
	mustPanic(t, func() { s.RUnlock(tk) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestProfilingHooksFire(t *testing.T) {
	topo := testTopo()
	type counts struct{ acq, cont, acqd, rel atomic.Int64 }
	var c counts
	h := &Hooks{
		Name:        "prof",
		OnAcquire:   func(*Event) { c.acq.Add(1) },
		OnContended: func(*Event) { c.cont.Add(1) },
		OnAcquired:  func(*Event) { c.acqd.Add(1) },
		OnRelease:   func(*Event) { c.rel.Add(1) },
	}
	l := withHooks(NewShflLock("prof"), h)
	exerciseMutex(t, l, topo, 4, 100)
	total := int64(4 * 100)
	if c.acq.Load() != total || c.acqd.Load() != total || c.rel.Load() != total {
		t.Errorf("hook counts acquire=%d acquired=%d release=%d, want %d",
			c.acq.Load(), c.acqd.Load(), c.rel.Load(), total)
	}
	if c.cont.Load() == 0 {
		t.Error("no contended events under 4-way contention")
	}
	if c.cont.Load() > total {
		t.Errorf("contended=%d exceeds acquisitions", c.cont.Load())
	}
}

func TestHookEventFields(t *testing.T) {
	topo := testTopo()
	l := NewTASLock("ev")
	var got Event
	h := &Hooks{
		Name:       "capture",
		OnAcquired: func(ev *Event) { got = *ev },
	}
	l.HookSlot().Replace("capture", h)
	tk := task.New(topo)
	l.Lock(tk)
	l.Unlock(tk)
	if got.LockID != l.ID() {
		t.Errorf("LockID = %d, want %d", got.LockID, l.ID())
	}
	if got.Task != tk {
		t.Error("wrong task in event")
	}
	if got.WaitNS < 0 {
		t.Errorf("negative wait %d", got.WaitNS)
	}
}

func TestHookSwapMidFlight(t *testing.T) {
	topo := testTopo()
	l := NewShflLock("swap")
	var a, b atomic.Int64
	ha := &Hooks{Name: "a", OnAcquired: func(*Event) { a.Add(1) }}
	hb := &Hooks{Name: "b", OnAcquired: func(*Event) { b.Add(1) }}
	l.HookSlot().Replace("a", ha)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock(tk)
				l.Unlock(tk)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		p := l.HookSlot().Replace("b", hb)
		p.Wait()
		runtime.Gosched() // let workers run between swaps on 1 CPU
		p = l.HookSlot().Replace("a", ha)
		p.Wait()
		runtime.Gosched()
	}
	for a.Load() == 0 { // a is the table left installed, and workers are still running
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	// Hook b may legitimately be zero on extreme schedules; a cannot be.
}

func TestTaskHeldLockTracking(t *testing.T) {
	topo := testTopo()
	l1 := NewTASLock("l1")
	l2 := NewMCSLock("l2")
	// Held-lock masks only track the first 64 lock IDs (like lockdep's
	// bounded table). The global ID sequence is past that window by the
	// time the full suite reaches this test, so pin trackable IDs: the
	// mask is per-task and this test's task touches only these two locks,
	// making the aliasing harmless.
	l1.id, l2.id = 1, 2
	tk := task.New(topo)
	l1.Lock(tk)
	if !tk.Holds(l1.ID()) || tk.HeldCount() != 1 {
		t.Errorf("after lock1: holds=%v count=%d", tk.Holds(l1.ID()), tk.HeldCount())
	}
	l2.Lock(tk)
	if tk.HeldCount() != 2 {
		t.Errorf("after lock2: count=%d", tk.HeldCount())
	}
	l2.Unlock(tk)
	l1.Unlock(tk)
	if tk.HeldCount() != 0 {
		t.Errorf("after unlocks: count=%d", tk.HeldCount())
	}
}

func TestComposeHooks(t *testing.T) {
	var events []string
	var mu sync.Mutex
	note := func(s string) func(*Event) {
		return func(*Event) { mu.Lock(); events = append(events, s); mu.Unlock() }
	}
	a := &Hooks{Name: "a", OnAcquired: note("a"), CmpNode: func(*ShuffleInfo) bool { return true }}
	b := &Hooks{Name: "b", OnAcquired: note("b"), SkipShuffle: func(*ShuffleInfo) bool { return true }}
	c := ComposeHooks(a, b)
	if c.Name != "a+b" {
		t.Errorf("Name = %q", c.Name)
	}
	if c.CmpNode == nil || !c.CmpNode(nil) {
		t.Error("CmpNode not taken from primary")
	}
	if c.SkipShuffle == nil || !c.SkipShuffle(nil) {
		t.Error("SkipShuffle not taken from secondary")
	}
	c.OnAcquired(&Event{})
	if len(events) != 2 || events[0] != "a" || events[1] != "b" {
		t.Errorf("chained events = %v", events)
	}
	if ComposeHooks(nil, a) != a || ComposeHooks(a, nil) != a {
		t.Error("nil composition identity broken")
	}
}

func TestBoundedShuffleHooks(t *testing.T) {
	inner := NUMAHooks()
	h := BoundedShuffleHooks(inner, 3)
	if !h.SkipShuffle(&ShuffleInfo{Round: 4}) {
		t.Error("round 4 not skipped with bound 3")
	}
	if h.SkipShuffle(&ShuffleInfo{Round: 2}) {
		t.Error("round 2 skipped with bound 3")
	}
}
