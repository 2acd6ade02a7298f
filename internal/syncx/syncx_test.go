package syncx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

func topo() *topology.Topology { return topology.New(2, 4) }

func TestSeqLockReadersSeeConsistentPairs(t *testing.T) {
	tp := topo()
	s := NewSeqLock(locks.NewShflLock("seq"))
	// Writers keep a and b equal; readers must never observe a != b.
	var a, b int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(tp)
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.WriteLock(tk)
				atomic.StoreInt64(&a, i)
				runtime.Gosched() // widen the torn window
				atomic.StoreInt64(&b, i)
				s.WriteUnlock(tk)
			}
		}()
	}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		readers.Add(1)
		go func() {
			defer wg.Done()
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				var ga, gb int64
				s.Read(func() {
					ga = atomic.LoadInt64(&a)
					gb = atomic.LoadInt64(&b)
				})
				if ga != gb {
					t.Errorf("torn read: a=%d b=%d", ga, gb)
					return
				}
			}
		}()
	}
	// Writers run exactly as long as the readers need them: stop when the
	// last fixed-count reader finishes, with no wall-clock grace period.
	readers.Wait()
	close(stop)
	wg.Wait()
	if s.Retries() == 0 {
		t.Log("no retries observed (low contention run)")
	}
}

func TestSeqLockRetrySemantics(t *testing.T) {
	tp := topo()
	s := NewSeqLock(locks.NewShflLock("w"))
	tk := task.New(tp)
	seq := s.ReadBegin()
	if s.ReadRetry(seq) {
		t.Fatal("spurious retry")
	}
	s.WriteLock(tk)
	s.WriteUnlock(tk)
	if !s.ReadRetry(seq) {
		t.Fatal("write not detected")
	}
	if s.Retries() != 1 {
		t.Errorf("Retries = %d", s.Retries())
	}
}

func TestSeqLockReadBeginSkipsWriter(t *testing.T) {
	tp := topo()
	s := NewSeqLock(locks.NewShflLock("w"))
	tk := task.New(tp)
	s.WriteLock(tk)
	done := make(chan uint64, 1)
	go func() { done <- s.ReadBegin() }()
	select {
	case <-done:
		t.Fatal("ReadBegin returned during a write")
	case <-time.After(10 * time.Millisecond):
	}
	s.WriteUnlock(tk)
	select {
	case seq := <-done:
		if seq&1 != 0 {
			t.Errorf("odd sequence %d returned", seq)
		}
	case <-time.After(time.Second):
		t.Fatal("ReadBegin stuck after write ended")
	}
}

func TestSeqLockPolicyAttachesToWriteSide(t *testing.T) {
	// The §6 extension claim: Concord instruments a seqlock through its
	// write-side lock without any seqlock-specific support.
	tp := topo()
	inner := locks.NewShflLock("seqw")
	var acquired atomic.Int64
	inner.HookSlot().Replace("prof", &locks.Hooks{
		Name:       "prof",
		OnAcquired: func(*locks.Event) { acquired.Add(1) },
	})
	s := NewSeqLock(inner)
	tk := task.New(tp)
	for i := 0; i < 5; i++ {
		s.WriteLock(tk)
		s.WriteUnlock(tk)
	}
	if acquired.Load() != 5 {
		t.Errorf("hook saw %d write acquisitions, want 5", acquired.Load())
	}
	if s.WriteSide() != locks.Lock(inner) {
		t.Error("WriteSide identity lost")
	}
}

func TestRCUReadersNeverBlock(t *testing.T) {
	r := NewRCU()
	tok := r.ReadLock()
	tok2 := r.ReadLock() // nesting
	r.ReadUnlock(tok2)
	r.ReadUnlock(tok)
	// Synchronize with no readers returns immediately.
	done := make(chan struct{})
	go func() { r.Synchronize(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Synchronize hung with no readers")
	}
	if r.GracePeriods() != 1 {
		t.Errorf("GracePeriods = %d", r.GracePeriods())
	}
}

func TestRCUSynchronizeWaitsForReaders(t *testing.T) {
	r := NewRCU()
	tok := r.ReadLock()
	done := make(chan struct{})
	go func() { r.Synchronize(); close(done) }()
	select {
	case <-done:
		t.Fatal("Synchronize returned with a reader inside")
	case <-time.After(20 * time.Millisecond):
	}
	r.ReadUnlock(tok)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Synchronize never completed")
	}
}

func TestRCUCallbacksRunAfterGracePeriod(t *testing.T) {
	r := NewRCU()
	var ran atomic.Int64
	r.Call(func() { ran.Add(1) })
	r.Call(func() { ran.Add(1) })
	if ran.Load() != 0 {
		t.Fatal("callback ran before grace period")
	}
	r.Synchronize()
	if ran.Load() != 2 {
		t.Fatalf("callbacks ran %d times, want 2", ran.Load())
	}
	// Second synchronize: nothing queued, nothing re-run.
	r.Synchronize()
	if ran.Load() != 2 {
		t.Error("callbacks re-ran")
	}
}

func TestRCUPointerSwapUseCase(t *testing.T) {
	// The canonical RCU pattern: readers follow a pointer, the writer
	// swaps and reclaims the old value after a grace period.
	type config struct{ version int64 }
	r := NewRCU()
	var ptr atomic.Pointer[config]
	ptr.Store(&config{version: 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var maxSeen atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tok := r.ReadLock()
				v := ptr.Load().version
				if v <= 0 {
					t.Error("reader saw reclaimed config")
				}
				for {
					m := maxSeen.Load()
					if v <= m || maxSeen.CompareAndSwap(m, v) {
						break
					}
				}
				r.ReadUnlock(tok)
				runtime.Gosched()
			}
		}()
	}
	// Make sure the readers are actually running before updates start
	// (on a single CPU they may not have been scheduled yet).
	for maxSeen.Load() == 0 {
		runtime.Gosched()
	}
	for v := int64(2); v <= 20; v++ {
		old := ptr.Swap(&config{version: v})
		r.Synchronize()
		old.version = -1 // "reclaim": readers must no longer see it
		// Lock-step with the readers so every version is observed even
		// under a single-CPU cooperative schedule.
		for maxSeen.Load() < v {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if maxSeen.Load() < 2 {
		t.Error("readers never observed an update")
	}
}

func TestRCUUnbalancedUnlockPanics(t *testing.T) {
	r := NewRCU()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.ReadUnlock(0)
}

func TestWaitQueueBasic(t *testing.T) {
	q := NewWaitQueue()
	var flag atomic.Bool
	done := make(chan struct{})
	go func() {
		q.Wait(func() bool { return flag.Load() })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait returned before condition")
	case <-time.After(10 * time.Millisecond):
	}
	flag.Store(true)
	q.WakeAll()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait never woke")
	}
}

func TestWaitQueueImmediateCondition(t *testing.T) {
	q := NewWaitQueue()
	q.Wait(func() bool { return true }) // must not block
	if q.Waiters() != 0 {
		t.Errorf("Waiters = %d", q.Waiters())
	}
}

func TestWaitQueueWakeOne(t *testing.T) {
	q := NewWaitQueue()
	var permits atomic.Int64
	const n = 4
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Wait(func() bool {
				for {
					p := permits.Load()
					if p <= 0 {
						return false
					}
					if permits.CompareAndSwap(p, p-1) {
						return true
					}
				}
			})
			done.Add(1)
		}()
	}
	// Wait until all are parked.
	deadline := time.Now().Add(2 * time.Second)
	for q.Waiters() < n && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	for i := 0; i < n; i++ {
		permits.Add(1)
		q.WakeOne()
		for done.Load() < int64(i+1) && time.Now().Before(deadline) {
			runtime.Gosched()
			// A WakeOne may hit a waiter whose condition claim lost the
			// race; nudge the rest.
			if q.Waiters() > 0 && permits.Load() > 0 {
				q.WakeAll()
			}
		}
	}
	wg.Wait()
	if done.Load() != n {
		t.Errorf("done = %d, want %d", done.Load(), n)
	}
}

func TestWaitQueueLostWakeupRace(t *testing.T) {
	// The classic check-then-sleep race: the waker fires between the
	// condition check and the registration; Wait's post-register
	// re-check must catch it. Hammer it.
	for i := 0; i < 200; i++ {
		q := NewWaitQueue()
		var flag atomic.Bool
		done := make(chan struct{})
		go func() {
			q.Wait(func() bool { return flag.Load() })
			close(done)
		}()
		flag.Store(true)
		q.WakeAll()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: lost wakeup", i)
		}
	}
}
