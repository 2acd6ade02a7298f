package locks

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/task"
)

func TestSwitchableBasicDelegation(t *testing.T) {
	topo := testTopo()
	under := NewRWSem("under")
	s := NewSwitchableRWLock("sw", under)
	tk := task.New(topo)

	s.RLock(tk)
	if under.Readers() != 1 {
		t.Fatal("read not delegated")
	}
	s.RUnlock(tk)
	if under.Readers() != 0 {
		t.Fatal("read unlock not delegated")
	}
	s.Lock(tk)
	if under.TryLock(task.New(topo)) {
		t.Fatal("write not delegated")
	}
	s.Unlock(tk)
	if s.Current() != RWLock(under) {
		t.Fatal("Current() wrong")
	}
}

func TestSwitchableTrySemantics(t *testing.T) {
	topo := testTopo()
	s := NewSwitchableRWLock("sw", NewRWSem("u"))
	t1, t2 := task.New(topo), task.New(topo)
	if !s.TryLock(t1) {
		t.Fatal("TryLock on free lock")
	}
	if s.TryLock(t2) || s.TryRLock(t2) {
		t.Fatal("Try* succeeded while write-held")
	}
	s.Unlock(t1)
	if !s.TryRLock(t1) || !s.TryRLock(t2) {
		t.Fatal("parallel TryRLock failed")
	}
	s.RUnlock(t1)
	s.RUnlock(t2)
}

func TestSwitchDrainsOldImplementation(t *testing.T) {
	topo := testTopo()
	old := NewRWSem("old")
	s := NewSwitchableRWLock("sw", old)
	holder := task.New(topo)
	s.RLock(holder) // pin the old implementation

	patch := s.Switch(NewBRAVO("new", NewRWSem("new-under")))
	// The old reader still pins its implementation, so the drain cannot
	// have completed — checked with an immediate probe, not a sleep.
	if patch.WaitTimeout(0) {
		t.Fatal("switch completed while old reader inside")
	}

	// A Try acquisition during the drain window must fail, not block or
	// overlap the old holder.
	t2 := task.New(topo)
	if s.TryRLock(t2) {
		t.Fatal("TryRLock succeeded during drain")
	}

	s.RUnlock(holder)
	// A hang here is a drain bug; the test binary's own deadline reports
	// it with a goroutine dump, so no local wall-clock bound is needed.
	patch.Wait()
	if s.Switches() != 1 {
		t.Errorf("Switches = %d", s.Switches())
	}
	// New acquisitions now use the new implementation.
	s.RLock(t2)
	if old.Readers() != 0 {
		t.Error("reader went to the drained implementation")
	}
	s.RUnlock(t2)
}

func TestSwitchPreservesMutualExclusion(t *testing.T) {
	// Writers keep excluding each other across repeated live switches.
	topo := testTopo()
	s := NewSwitchableRWLock("sw", NewRWSem("a"))
	var inCS atomic.Int32
	var counter int
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 6; w++ {
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
				s.Lock(tk)
				if inCS.Add(1) != 1 {
					t.Error("exclusion violated across switch")
				}
				counter++
				runtime.Gosched()
				inCS.Add(-1)
				s.Unlock(tk)
			}
		}()
	}
	impls := []func() RWLock{
		func() RWLock { return NewRWSem("r") },
		func() RWLock { return NewBRAVO("b", NewRWSem("ub")) },
	}
	for i := 0; i < 24; i++ {
		s.Switch(impls[i%len(impls)]()).Wait()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if counter == 0 {
		t.Error("no progress during switches")
	}
}

func TestSwitchTimeoutSucceedsWhenDrained(t *testing.T) {
	topo := testTopo()
	s := NewSwitchableRWLock("sw", NewRWSem("old"))
	next := NewRWSem("new")
	p, err := s.SwitchTimeout(next, time.Second)
	if err != nil {
		t.Fatalf("uncontended bounded switch failed: %v", err)
	}
	p.Wait()
	if s.Current() != RWLock(next) {
		t.Fatal("lock not on the new implementation")
	}
	if s.Aborts() != 0 {
		t.Errorf("Aborts = %d on a successful switch", s.Aborts())
	}
	tk := task.New(topo)
	s.Lock(tk)
	s.Unlock(tk)
}

func TestSwitchTimeoutAborts(t *testing.T) {
	topo := testTopo()
	old := NewRWSem("old")
	s := NewSwitchableRWLock("sw", old)
	holder := task.New(topo)
	s.RLock(holder) // a wedged critical section pins the old implementation

	rb, err := s.SwitchTimeout(NewBRAVO("new", NewRWSem("new-under")), 15*time.Millisecond)
	if !errors.Is(err, ErrSwitchAborted) {
		t.Fatalf("err = %v, want ErrSwitchAborted", err)
	}
	if rb == nil {
		t.Fatal("aborted switch returned no rollback patch")
	}
	if s.Aborts() != 1 {
		t.Errorf("Aborts = %d, want 1", s.Aborts())
	}
	if s.Current() != RWLock(old) {
		t.Fatal("aborted switch left the old implementation")
	}

	// An acquirer arriving after the abort must retry onto the rolled-back
	// implementation and share the read lock with the wedged holder — a
	// bounded stall, not a wedge behind the abandoned switch. Wedging here
	// hangs the test and is reported by the binary's own deadline.
	done := make(chan struct{})
	go func() {
		t2 := task.New(topo)
		s.RLock(t2)
		s.RUnlock(t2)
		close(done)
	}()
	// Deliberate wait with the read lock held: the test asserts a late
	// reader can share it despite the aborted switch.
	<-done //vet:ignore blockingunderlock

	// The rollback patch drains once nothing can observe the abandoned
	// implementation; the wedged holder keeps the lock usable throughout.
	rb.Wait()
	s.RUnlock(holder)

	// A later unbounded switch still lands: abort is per-attempt state,
	// not a poisoned lock.
	p := s.Switch(NewRWSem("s2"))
	p.Wait()
	tk, probe := task.New(topo), task.New(topo)
	s.Lock(tk)
	if old.TryLock(probe) {
		old.Unlock(probe)
	} else {
		t.Error("writer still delegated to the rolled-back implementation")
	}
	s.Unlock(tk)
}

func TestSwitchTimeoutUnderLoad(t *testing.T) {
	// Repeated bounded switches with aggressive deadlines against writer
	// churn: some land, some abort at the deadline — exclusion and
	// progress must hold through both outcomes.
	topo := testTopo()
	s := NewSwitchableRWLock("sw", NewRWSem("a"))
	var inCS atomic.Int32
	var counter atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				s.Lock(tk)
				if inCS.Add(1) != 1 {
					t.Error("exclusion violated across bounded switch")
				}
				counter.Add(1)
				runtime.Gosched()
				inCS.Add(-1)
				s.Unlock(tk)
			}
		}()
	}
	aborted := 0
	for i := 0; i < 30; i++ {
		if _, err := s.SwitchTimeout(NewRWSem("r"), 50*time.Microsecond); errors.Is(err, ErrSwitchAborted) {
			aborted++
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if counter.Load() == 0 {
		t.Error("no progress during bounded switches")
	}
	if int64(aborted) != s.Aborts() {
		t.Errorf("abort accounting: returned %d, counter %d", aborted, s.Aborts())
	}
	t.Logf("aborted %d/30 bounded switches", aborted)
}

// TestSwitchableReaderWriterStorm mixes readers and writers across
// repeated implementation switches — both unbounded switches and
// aggressively bounded ones that abort mid-storm. It checks the full
// rwlock invariant (writers exclusive against everyone, readers only
// against writers) holds continuously across every transition, and that
// both sides keep making progress: a lost wakeup anywhere in the
// parker-based rwsem or the drain machinery wedges a goroutine and
// hangs the test, which the binary's deadline reports.
func TestSwitchableReaderWriterStorm(t *testing.T) {
	topo := testTopo()
	s := NewSwitchableRWLock("storm", NewRWSem("a"))

	nReaders, nWriters, switches := 6, 3, 40
	if testing.Short() {
		nReaders, nWriters, switches = 3, 2, 12
	}

	var readers, writers atomic.Int32
	var rOps, wOps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i := 0; i < nReaders; i++ {
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
				s.RLock(tk)
				readers.Add(1)
				if writers.Load() != 0 {
					t.Error("reader overlapped a writer across a switch")
				}
				runtime.Gosched()
				readers.Add(-1)
				s.RUnlock(tk)
				rOps.Add(1)
			}
		}()
	}
	for i := 0; i < nWriters; i++ {
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
				s.Lock(tk)
				if writers.Add(1) != 1 {
					t.Error("two writers inside across a switch")
				}
				if readers.Load() != 0 {
					t.Error("writer overlapped a reader across a switch")
				}
				runtime.Gosched()
				writers.Add(-1)
				s.Unlock(tk)
				wOps.Add(1)
			}
		}()
	}

	impls := []func() RWLock{
		func() RWLock { return NewRWSem("r") },
		func() RWLock { return NewBRAVO("p", NewRWSem("up")) },
		func() RWLock { return NewBRAVO("b", NewRWSem("ub")) },
	}
	aborted := 0
	for i := 0; i < switches; i++ {
		if i%3 == 2 {
			// Deliberately too tight: some of these abort at the deadline
			// and roll back while the storm is running.
			if _, err := s.SwitchTimeout(impls[i%len(impls)](), 50*time.Microsecond); errors.Is(err, ErrSwitchAborted) {
				aborted++
			}
		} else {
			s.Switch(impls[i%len(impls)]()).Wait()
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	if rOps.Load() == 0 || wOps.Load() == 0 {
		t.Errorf("starved side: readers %d ops, writers %d ops", rOps.Load(), wOps.Load())
	}
	if int64(aborted) != s.Aborts() {
		t.Errorf("abort accounting: observed %d, counter %d", aborted, s.Aborts())
	}
	t.Logf("storm: %d read / %d write ops across %d switches (%d aborted)",
		rOps.Load(), wOps.Load(), switches, aborted)
}

func TestSwitchableMisusePanics(t *testing.T) {
	topo := testTopo()
	s := NewSwitchableRWLock("sw", NewRWSem("u"))
	tk := task.New(topo)
	mustPanic(t, func() { s.Unlock(tk) }) // unlock without lock
	s.RLock(tk)
	mustPanic(t, func() { s.Unlock(tk) }) // mode mismatch
	s.RUnlock(tk)
	s.Lock(tk)
	mustPanic(t, func() { s.Lock(tk) }) // nested acquisition
	s.Unlock(tk)
}

func TestShflLockRuntimeBlockingSwitch(t *testing.T) {
	topo := testTopo()
	l := NewShflLock("mode")
	if l.Blocking() {
		t.Fatal("default should be non-blocking")
	}
	// The rwsem→rwlock switch of §3.1.1 (iii): flip modes under load.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock(tk)
				if i&7 == 0 {
					runtime.Gosched()
				}
				l.Unlock(tk)
			}
		}()
	}
	for i := 0; i < 40; i++ {
		l.SetBlocking(i%2 == 0)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := l.SafetyError(); got != "" {
		t.Errorf("safety tripped: %s", got)
	}
}
