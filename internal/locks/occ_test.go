package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"concord/internal/task"
	"concord/internal/topology"
)

// Optimistic read tier: speculation engages per mode/promotion state,
// validated sections never observe a half-applied write, aborts fall
// back to the pessimistic read lock, and the wrapper-level sequence on
// SwitchableRWLock keeps speculation sound across implementation
// switches.

func occTask() *task.T { return task.New(topology.New(1, 2)) }

func TestOptReadModes(t *testing.T) {
	tk := occTask()
	s := NewRWSem("occ-modes")
	var data uint64 = 42

	// Auto + unpromoted: pessimistic, no speculative read counted.
	var got uint64
	s.OptRead(tk, func() { got = atomic.LoadUint64(&data) })
	if got != 42 {
		t.Fatalf("read %d", got)
	}
	if st := s.OCCStats(); st.Reads != 0 {
		t.Fatalf("unpromoted lock speculated: %+v", st)
	}

	// Promote: speculative reads count.
	if !s.OCCPromote(true) {
		t.Fatal("promotion did not take")
	}
	if s.OCCPromote(true) {
		t.Fatal("re-promotion reported a change")
	}
	s.OptRead(tk, func() { got = atomic.LoadUint64(&data) })
	st := s.OCCStats()
	if st.Reads != 1 || !st.Promoted || st.Promotions != 1 {
		t.Fatalf("promoted stats: %+v", st)
	}

	// Forced off overrides promotion and ignores further requests.
	s.OCCSetMode(OCCOff)
	s.OptRead(tk, func() { got = atomic.LoadUint64(&data) })
	if st := s.OCCStats(); st.Reads != 1 {
		t.Fatalf("OCCOff still speculated: %+v", st)
	}
	if s.OCCPromote(false) {
		t.Fatal("promotion request honoured outside auto mode")
	}

	// Forced on speculates regardless of the (still-promoted) state.
	s.OCCSetMode(OCCOn)
	s.OptRead(tk, func() { got = atomic.LoadUint64(&data) })
	if st := s.OCCStats(); st.Reads != 2 {
		t.Fatalf("OCCOn did not speculate: %+v", st)
	}

	// Demote path bumps the demotion counter.
	s.OCCSetMode(OCCAuto)
	if !s.OCCPromote(false) {
		t.Fatal("demotion did not take")
	}
	if st := s.OCCStats(); st.Demotions != 1 || st.Promoted {
		t.Fatalf("demotion stats: %+v", st)
	}
}

func TestOptReadAbortsWhileWriterHeld(t *testing.T) {
	tk := occTask()
	wk := occTask()
	s := NewRWSem("occ-abort")
	s.OCCSetMode(OCCOn)
	var data uint64

	s.Lock(wk)
	atomic.StoreUint64(&data, 7)
	var got uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Seq is odd for the whole budget, so every attempt aborts and
		// the read falls back to RLock — which blocks until the writer
		// releases, proving the fallback is the pessimistic path.
		s.OptRead(tk, func() { got = atomic.LoadUint64(&data) })
	}()
	st := s.OCCStats()
	for st.Aborts < occRetryBudget {
		st = s.OCCStats()
	}
	s.Unlock(wk)
	<-done
	if got != 7 {
		t.Fatalf("fallback read %d, want 7", got)
	}
	st = s.OCCStats()
	if st.Reads != 0 || st.Aborts < occRetryBudget {
		t.Fatalf("abort stats: %+v", st)
	}
}

// TestOptReadNeverTorn hammers a promoted rwsem with a writer updating
// two words that must stay equal, and speculative readers asserting they
// never validate a torn pair. Runs under -race in CI.
func TestOptReadNeverTorn(t *testing.T) {
	s := NewRWSem("occ-torn")
	s.OCCSetMode(OCCOn)
	var a, b uint64

	const iters = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wk := occTask()
		for i := uint64(1); i <= iters; i++ {
			s.Lock(wk)
			atomic.StoreUint64(&a, i)
			atomic.StoreUint64(&b, i)
			s.Unlock(wk)
		}
	}()
	var torn atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rk := occTask()
			for i := 0; i < iters; i++ {
				var x, y uint64
				s.OptRead(rk, func() {
					x = atomic.LoadUint64(&a)
					y = atomic.LoadUint64(&b)
				})
				if x != y {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d validated sections observed a torn pair", n)
	}
	st := s.OCCStats()
	if st.Reads == 0 {
		t.Fatalf("no speculative reads completed: %+v", st)
	}
}

// TestSwitchableOptReadAcrossSwitch proves the wrapper-level sequence
// survives an implementation switch: speculation keeps validating (and
// keeps being invalidated by writers) after the inner lock is replaced.
func TestSwitchableOptReadAcrossSwitch(t *testing.T) {
	tk := occTask()
	wk := occTask()
	s := NewSwitchableRWLock("occ-switch", NewRWSem("occ-switch-a"))
	s.OCCSetMode(OCCOn)
	var data uint64

	s.OptRead(tk, func() { _ = atomic.LoadUint64(&data) })
	if st := s.OCCStats(); st.Reads != 1 {
		t.Fatalf("pre-switch stats: %+v", st)
	}

	s.Switch(NewRWSem("occ-switch-b")).Wait()

	// Writer through the new implementation still bumps the wrapper seq.
	s.Lock(wk)
	if st := s.OCCStats(); st.Mode != OCCOn {
		t.Fatalf("mode lost across switch: %+v", st)
	}
	before := s.OCCStats().Aborts
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.OptRead(tk, func() { _ = atomic.LoadUint64(&data) })
	}()
	for s.OCCStats().Aborts < before+occRetryBudget {
	}
	s.Unlock(wk)
	<-done

	s.OptRead(tk, func() { _ = atomic.LoadUint64(&data) })
	if st := s.OCCStats(); st.Reads != 2 {
		t.Fatalf("post-switch stats: %+v", st)
	}
}

// occLock is what the tier's contract tests need of a lock that carries it.
type occLock interface {
	RWLock
	Hooked
	OCCCapable
	OptRead(t *task.T, fn func())
	SetClock(now func() int64)
}

// occLocks is the roster of locks carrying the optimistic tier.
func occLocks(name string) []occLock {
	return []occLock{
		NewRWSem(name + "-rwsem"),
		NewSwitchableRWLock(name+"-switchable", NewRWSem(name+"-inner")),
	}
}

// TestOptReadRaisesNothing is the contract of DESIGN §7 decision 7: a
// validated speculative section is counted by its lock and announced to
// nobody. With every profiling hook subscribed on a promoted lock, 1000
// validated reads call no hook, read no clock, hold no pin on the table
// (a Replace issued from inside a section drains at once), allocate
// nothing, and add exactly 1000 to OCCStats().Reads.
func TestOptReadRaisesNothing(t *testing.T) {
	for _, l := range occLocks("occ-quiet") {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			var hookCalls, clockReads atomic.Int64
			count := func(*Event) { hookCalls.Add(1) }
			table := &Hooks{Name: "all-four", OnAcquire: count, OnContended: count, OnAcquired: count, OnRelease: count}
			l.SetClock(func() int64 { return clockReads.Add(1) })
			l.HookSlot().Replace("all-four", table).Wait()
			if !l.OCCPromote(true) {
				t.Fatal("promotion did not take")
			}

			tk := occTask()
			var data, got uint64 = 42, 0
			read := func() { got = atomic.LoadUint64(&data) }
			for i := 0; i < 1000; i++ {
				if i != 500 {
					l.OptRead(tk, read)
					continue
				}
				l.OptRead(tk, func() {
					read()
					if !l.HookSlot().Replace("mid-section", table).WaitTimeout(0) {
						t.Error("a speculative section holds a pin on the hook table")
					}
				})
			}
			if got != 42 {
				t.Fatalf("read %d", got)
			}
			if st := l.OCCStats(); st.Reads != 1000 || st.Aborts != 0 {
				t.Fatalf("1000 validated reads counted as %+v", st)
			}
			if h, c := hookCalls.Load(), clockReads.Load(); h != 0 || c != 0 {
				t.Fatalf("validated reads made %d hook calls and %d clock reads, want 0 and 0", h, c)
			}
			if avg := testing.AllocsPerRun(200, func() { l.OptRead(tk, read) }); avg != 0 {
				t.Errorf("validated OptRead allocates %.2f/op", avg)
			}

			// The same table does hear a real acquisition.
			l.RLock(tk)
			l.RUnlock(tk)
			if hookCalls.Load() == 0 || clockReads.Load() == 0 {
				t.Fatal("the table under test is not attached")
			}
		})
	}
}

// TestOptReadCountIsExact: the striped count loses nothing. Eight readers,
// four of them on one virtual CPU (one stripe, contended) and four on CPUs
// of their own, make 10 000 validated reads each while the total is being
// summed concurrently; the sum never runs backwards and ends at 80 000.
// Runs under -race in CI.
func TestOptReadCountIsExact(t *testing.T) {
	const readers, each = 8, 10000
	topo := topology.New(1, readers)
	for _, l := range occLocks("occ-exact") {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			l.OCCSetMode(OCCOn)
			var data uint64
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				cpu := 0
				if r >= readers/2 {
					cpu = r
				}
				tk := task.NewOnCPU(topo, cpu)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						l.OptRead(tk, func() { _ = atomic.LoadUint64(&data) })
					}
				}()
			}
			stop := make(chan struct{})
			summed := make(chan struct{})
			go func() {
				defer close(summed)
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := l.OCCStats().Reads
					if n < last || n > readers*each {
						t.Errorf("OCCStats().Reads went %d -> %d", last, n)
						return
					}
					last = n
				}
			}()
			wg.Wait()
			close(stop)
			<-summed
			if st := l.OCCStats(); st.Reads != readers*each || st.Aborts != 0 {
				t.Fatalf("%d validated reads counted as %+v", readers*each, st)
			}
		})
	}
}

// TestSequenceOddOnlyAroundWrites pins where the sequence word goes odd:
// after the writer's lock_acquired hooks, before Lock returns. While a
// writer that already holds exclusion is still inside its OnAcquired hook
// the word is even and a speculative read on another goroutine validates;
// once Lock has returned, a read aborts its whole budget and falls back
// to the read lock, which waits for Unlock.
func TestSequenceOddOnlyAroundWrites(t *testing.T) {
	for _, l := range occLocks("occ-window") {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			l.OCCSetMode(OCCOn)
			inHook, resume := make(chan struct{}), make(chan struct{})
			l.HookSlot().Replace("block-writer", &Hooks{
				Name: "block-writer",
				OnAcquired: func(ev *Event) {
					if !ev.Reader {
						inHook <- struct{}{}
						<-resume
					}
				},
			}).Wait()

			wk, rk := occTask(), occTask()
			var data uint64
			locked := make(chan struct{})
			go func() {
				l.Lock(wk)
				close(locked)
			}()
			<-inHook
			early := make(chan struct{})
			go func() {
				defer close(early)
				l.OptRead(rk, func() { _ = atomic.LoadUint64(&data) })
			}()
			// Poll rather than wait on early: a read that aborts here falls
			// back to the read lock and returns only after the writer is
			// done, which must fail this test, not hang it.
			st := l.OCCStats()
			for st.Reads == 0 && st.Aborts < occRetryBudget {
				runtime.Gosched()
				st = l.OCCStats()
			}
			if st.Reads != 1 || st.Aborts != 0 {
				t.Errorf("read beside a writer still in its lock_acquired hook: %+v, want it validated", st)
				resume <- struct{}{}
				<-locked
				l.Unlock(wk)
				<-early
				return
			}
			<-early
			resume <- struct{}{}
			<-locked

			atomic.StoreUint64(&data, 7)
			var got uint64
			done := make(chan struct{})
			go func() {
				defer close(done)
				l.OptRead(rk, func() { got = atomic.LoadUint64(&data) })
			}()
			for l.OCCStats().Aborts < occRetryBudget {
				runtime.Gosched()
			}
			select {
			case <-done:
				t.Fatal("a read section returned while the writer held the lock")
			default:
			}
			l.Unlock(wk)
			<-done
			if st := l.OCCStats(); got != 7 || st.Reads != 1 {
				t.Fatalf("fallback read %d with %+v, want 7 through the read lock", got, st)
			}
		})
	}
}
