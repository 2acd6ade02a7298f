package locks

import (
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/livepatch"
	"concord/internal/task"
	"concord/internal/topology"
)

// Conformance of the instrumentation core (DESIGN §7): every lock in
// invariantRoster, on every side it has, must raise
// acquire → [contended] → acquired → release on its own hook table, with
// its own ID, the acquiring task, the right Reader flag, a sane wait and
// a positive hold, one pin per hook call, and clean task bookkeeping
// afterwards.

// eventRecorder installs hooks that log every event a lock raises and
// check the pin scope from inside each hook call.
type eventRecorder struct {
	t    *testing.T
	slot *livepatch.Slot[Hooks]
	h    *Hooks
	// solo is set while only one task operates on the lock, which is
	// when a hook can tell that the table version it runs on is pinned.
	solo atomic.Bool

	mu      sync.Mutex
	log     []recordedEvent
	patches []*livepatch.Patch
}

type recordedEvent struct {
	kind string
	ev   Event
}

func (e recordedEvent) String() string {
	return fmt.Sprintf("%s id=%d now=%d wait=%d hold=%d q=%d reader=%v",
		e.kind, e.ev.LockID, e.ev.NowNS, e.ev.WaitNS, e.ev.HoldNS, e.ev.QueueLen, e.ev.Reader)
}

// record installs the recorder on l and gives l a clock stepping 10 ns
// per read, so every wait and hold is deterministic and non-zero.
func record(t *testing.T, l Lock) *eventRecorder {
	r := &eventRecorder{t: t, slot: l.(Hooked).HookSlot()}
	hook := func(kind string) func(*Event) {
		return func(ev *Event) {
			// Republishing the table retires the version this call runs
			// on (another task's hook may have retired it first, hence
			// solo): its drain must be blocked by this call's pin now,
			// and complete once the operation returns (checked in take).
			p := r.slot.Replace("conformance", r.h)
			if r.solo.Load() && p.WaitTimeout(0) {
				t.Errorf("%s: hook table not pinned during the hook call", kind)
			}
			r.mu.Lock()
			r.log = append(r.log, recordedEvent{kind, *ev})
			r.patches = append(r.patches, p)
			r.mu.Unlock()
		}
	}
	r.h = &Hooks{
		Name:        "conformance",
		OnAcquire:   hook("acquire"),
		OnContended: hook("contended"),
		OnAcquired:  hook("acquired"),
		OnRelease:   hook("release"),
	}
	r.slot.Replace("conformance", r.h)
	r.solo.Store(true)
	var tick atomic.Int64
	l.(interface{ SetClock(func() int64) }).SetClock(func() int64 { return tick.Add(10) })
	return r
}

// take returns and clears the events logged so far, after checking that
// no hook call left a pin behind.
func (r *eventRecorder) take() []recordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.patches {
		if !p.WaitTimeout(0) {
			r.t.Errorf("a hook-table pin outlived its operation")
		}
	}
	log := r.log
	r.log, r.patches = nil, nil
	return log
}

func (r *eventRecorder) saw(kind string, tk *task.T) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.log {
		if e.kind == kind && e.ev.Task == tk {
			return true
		}
	}
	return false
}

// checkPair asserts one acquisition's event sequence and fields.
func checkPair(t *testing.T, what string, log []recordedEvent, l Lock, tk *task.T, reader, contended bool) {
	t.Helper()
	want := []string{"acquire", "acquired", "release"}
	if contended {
		want = []string{"acquire", "contended", "acquired", "release"}
	}
	if len(log) != len(want) {
		t.Fatalf("%s: events %v, want kinds %v", what, log, want)
	}
	for i, e := range log {
		if e.kind != want[i] {
			t.Fatalf("%s: events %v, want kinds %v", what, log, want)
		}
		if e.ev.LockID != l.ID() || e.ev.Task != tk || e.ev.Reader != reader {
			t.Errorf("%s: %v (task ok=%v): want id=%d reader=%v",
				what, e, e.ev.Task == tk, l.ID(), reader)
		}
		switch e.kind {
		case "acquired":
			if e.ev.WaitNS < 0 {
				t.Errorf("%s: %v: negative wait", what, e)
			}
		case "release":
			if e.ev.HoldNS <= 0 {
				t.Errorf("%s: %v: hold not positive", what, e)
			}
		}
	}
	if m := tk.HeldMask(); m != 0 {
		t.Errorf("%s: held mask %#x after release", what, m)
	}
}

func TestInstrumentationConformance(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range invariantRoster() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Top-level tests never overlap, so restarting the ID
			// allocator is safe and puts every lock built here inside
			// the 64 IDs a task's held mask can track.
			lockIDs.Store(0)
			l := tc.mk()
			r := record(t, l)
			type side struct {
				name         string
				reader       bool
				lock, unlock func(*task.T)
			}
			sides := []side{{"write", false, l.Lock, l.Unlock}}
			if rw, ok := l.(RWLock); ok {
				sides = append(sides, side{"read", true, rw.RLock, rw.RUnlock})
			}
			// Wrappers leave the waiting, and so lock_contended, to the
			// lock they wrap.
			waitsItself := true
			switch l.(type) {
			case *BRAVO, *SwitchableRWLock:
				waitsItself = false
			}

			for _, s := range sides {
				// Uncontended.
				tk := task.NewOnCPU(topo, 0)
				s.lock(tk)
				if !tk.Holds(l.ID()) {
					t.Errorf("%s: held mask %#x lacks lock %d while held", s.name, tk.HeldMask(), l.ID())
				}
				s.unlock(tk)
				checkPair(t, s.name, r.take(), l, tk, s.reader, false)

				// Contended: a writer holds the lock until the waiter has
				// announced itself.
				holder := task.NewOnCPU(topo, 1)
				l.Lock(holder)
				r.take()
				r.solo.Store(false)
				done := make(chan struct{})
				go func() {
					defer close(done)
					s.lock(tk)
					s.unlock(tk)
				}()
				if waitsItself {
					for !r.saw("contended", tk) {
						runtime.Gosched()
					}
				} else {
					for !r.saw("acquire", tk) {
						runtime.Gosched()
					}
				}
				l.Unlock(holder)
				<-done
				r.solo.Store(true)
				var waiter []recordedEvent
				for _, e := range r.take() {
					if e.ev.Task == tk {
						waiter = append(waiter, e)
					}
				}
				checkPair(t, s.name+" contended", waiter, l, tk, s.reader, waitsItself)
			}
		})
	}
}

// TestShflLockEventSequencePinned holds ShflLock's emitted events — order
// and every field, under the stepping clock — to the sequence recorded
// before the instrumentation core replaced its hand-rolled call sites,
// less the stamps no event carries: a Try operation reads no start time
// (its lock_acquired reports a zero wait), and a failed one reads no clock
// at all.
func TestShflLockEventSequencePinned(t *testing.T) {
	lockIDs.Store(0)
	topo := topology.New(2, 4)
	l := NewShflLock("pinned")
	r := record(t, l)
	a, b := task.NewOnCPU(topo, 0), task.NewOnCPU(topo, 1)

	l.Lock(a)
	l.Unlock(a)
	if !l.TryLock(a) {
		t.Fatal("TryLock failed on a free lock")
	}
	if l.TryLock(b) {
		t.Fatal("TryLock succeeded on a held lock")
	}
	r.solo.Store(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Lock(b)
		l.Unlock(b)
	}()
	// Queued means b has made its last clock read before a's release.
	for l.QueueLen() == 0 {
		runtime.Gosched()
	}
	l.Unlock(a)
	<-done

	want := []string{
		"acquire id=0 now=10 wait=0 hold=0 q=0 reader=false",
		"acquired id=0 now=20 wait=10 hold=0 q=0 reader=false",
		"release id=0 now=30 wait=0 hold=10 q=0 reader=false",
		"acquired id=0 now=40 wait=0 hold=0 q=0 reader=false",
		"acquire id=0 now=50 wait=0 hold=0 q=0 reader=false",
		"contended id=0 now=60 wait=0 hold=0 q=0 reader=false",
		"release id=0 now=80 wait=0 hold=40 q=1 reader=false",
		"acquired id=0 now=90 wait=40 hold=0 q=0 reader=false",
		"release id=0 now=100 wait=0 hold=10 q=0 reader=false",
	}
	got := r.take()
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(got), got, len(want))
	}
	for i, e := range got {
		if e.String() != want[i] {
			t.Errorf("event %d: got  %s\n          want %s", i, e, want[i])
		}
	}
}

// --- Cost shape (DESIGN §7.5): what an operation pays follows what is
// attached to its lock. ---

// stepClock gives l a clock stepping 10 ns per read and returns its
// counter, so reads since a mark are (tick-mark)/10.
func stepClock(l Lock) *atomic.Int64 {
	tick := new(atomic.Int64)
	l.(interface{ SetClock(func() int64) }).SetClock(func() int64 { return tick.Add(10) })
	return tick
}

type lockSide struct {
	name         string
	reader       bool
	lock, unlock func(*task.T)
}

func sidesOf(l Lock) []lockSide {
	sides := []lockSide{{"write", false, l.Lock, l.Unlock}}
	if rw, ok := l.(RWLock); ok {
		sides = append(sides, lockSide{"read", true, rw.RLock, rw.RUnlock})
	}
	return sides
}

// wrapped returns the lock l wraps, or nil if l is not a wrapper.
func wrapped(l Lock) Lock {
	switch w := l.(type) {
	case *BRAVO:
		return w.Underlying()
	case *SwitchableRWLock:
		return w.Current()
	}
	return nil
}

// waitsItself reports whether l calls contended itself; wrappers leave
// the waiting to the lock they wrap.
func waitsItself(l Lock) bool { return wrapped(l) == nil }

// sampleEvery is task's csSampleEvery, which this package cannot see: an
// acquisition on a lock whose table subscribes to neither lock_acquired
// nor lock_release is timed one time in sampleEvery.
const sampleEvery = 16

// binomialOK reports whether hits successes in n draws at 1-in-sampleEvery
// lie within five standard deviations of the mean.
func binomialOK(hits, n int) bool {
	p := 1.0 / sampleEvery
	mean, sd := float64(n)*p, math.Sqrt(float64(n)*p*(1-p))
	return math.Abs(float64(hits)-mean) <= 5*sd
}

// TestCostFollowsTheTable: what an uncontended pair reads of the clock
// follows its own lock's table, which is read only for a timestamp some
// event carries. With no subscriber to lock_release the pair's section is
// timed on the task's 1-in-sampleEvery draw, which adds two reads (one to
// open the section, one to close it) or one when lock_acquired's stamp
// opens it; begin reads the start time only for lock_acquire, and
// acquired reads for lock_acquired. A wrapper reads the start time for
// lock_acquired too, since no lock_contended of its own can stamp its
// wait. Nothing is pinned across the held section, and the subscriber
// that is there still gets its fields: an uncontended wait runs from
// lock_acquire's stamp, or is 0 when nothing stamped a start.
func TestCostFollowsTheTable(t *testing.T) {
	topo := topology.New(2, 4)
	var wait, hold, acquireNow int64
	onAcquire := func(ev *Event) { acquireNow = ev.NowNS }
	onAcquired := func(ev *Event) { wait = ev.WaitNS }
	tables := []struct {
		name    string
		h       *Hooks
		reads   int64 // per untimed pair
		timed   int64 // per pair on the draw
		sampled bool  // most pairs are untimed
		wait    int64 // lock_acquired's WaitNS, on a lock that waits itself
	}{
		{"no table", nil, 0, 2, true, -1},
		{"cmp_node only", &Hooks{CmpNode: func(*ShuffleInfo) bool { return false }}, 0, 2, true, -1},
		{"release only", &Hooks{OnRelease: func(ev *Event) { hold = ev.HoldNS }}, 2, 2, false, -1},
		{"acquired only", &Hooks{OnAcquired: onAcquired}, 1, 2, true, 0},
		{"acquire only", &Hooks{OnAcquire: onAcquire}, 1, 3, true, -1},
		{"acquire and acquired", &Hooks{OnAcquire: onAcquire, OnAcquired: onAcquired}, 2, 3, true, 10},
		// A table that declares its lock_acquired never reads NowNS reads
		// no clock for an acquisition that did not wait; composed with one
		// that reads it, the stamp is back.
		{"acquired only, no now_ns", &Hooks{OnAcquired: onAcquired, AcquiredNoNow: true}, 0, 2, true, 0},
		{"acquired no now_ns, composed with a stamp reader", ComposeHooks(
			&Hooks{OnAcquired: onAcquired, AcquiredNoNow: true},
			&Hooks{OnAcquired: func(ev *Event) { acquireNow = ev.NowNS }}), 1, 2, true, 0},
	}
	for _, tc := range invariantRoster() {
		for _, tb := range tables {
			t.Run(tc.name+"/"+tb.name, func(t *testing.T) {
				l := tc.mk()
				slot := l.(Hooked).HookSlot()
				slot.Replace(tb.name, tb.h)
				untimed, timed, wantWait := tb.reads, tb.timed, tb.wait
				if tb.h != nil && tb.h.OnAcquire == nil && tb.h.OnAcquired != nil && !waitsItself(l) {
					untimed, timed, wantWait = untimed+1, timed+1, 10
					if tb.h.AcquiredNoNow {
						// The wrapper's start time makes every acquisition
						// one that may have waited: it is stamped.
						untimed++
					}
				}
				for _, s := range sidesOf(l) {
					if b, ok := l.(*BRAVO); ok {
						// BRAVO's algorithm reads the clock when a writer
						// finds the bias on (revocation cost) or a reader
						// finds it off (inhibit window): measure each side
						// in the state where it does neither.
						b.SetBias(s.reader)
					}
					tick := stepClock(l)
					wait, hold, acquireNow = -1, -1, -1
					tk := task.NewOnCPU(topo, 0)
					s.lock(tk)
					if !slot.Replace(tb.name, tb.h).WaitTimeout(0) {
						t.Errorf("%s: hook table pinned across the held section", s.name)
					}
					s.unlock(tk)
					reads := tick.Load() / 10
					if reads != untimed && !(tb.sampled && reads == timed) {
						t.Errorf("%s: %d clock reads per pair, want %d (or %d on the draw)", s.name, reads, untimed, timed)
					}
					if tb.h != nil && tb.h.OnRelease != nil && hold <= 0 {
						t.Errorf("%s: release-only table got HoldNS=%d, want > 0", s.name, hold)
					}
					if tb.h != nil && tb.h.OnAcquire != nil && acquireNow != 10 {
						t.Errorf("%s: lock_acquire NowNS=%d, want the pair's first read, 10", s.name, acquireNow)
					}
					if wait != wantWait {
						t.Errorf("%s: WaitNS=%d, want %d (-1: no lock_acquired)", s.name, wait, wantWait)
					}
					if !tb.sampled {
						continue
					}
					// Every pair reads untimed or timed times, and the
					// share that reads the latter is the draw's.
					const pairs = 4096
					drawn := 0
					for i := 0; i < pairs; i++ {
						mark := tick.Load()
						s.lock(tk)
						s.unlock(tk)
						switch reads := (tick.Load() - mark) / 10; reads {
						case untimed:
						case timed:
							drawn++
						default:
							t.Fatalf("%s: %d clock reads in one pair, want %d or %d", s.name, reads, untimed, timed)
						}
					}
					if !binomialOK(drawn, pairs) {
						t.Errorf("%s: %d of %d pairs timed, want about 1 in %d", s.name, drawn, pairs, sampleEvery)
					}
				}
			})
		}
		for _, noNow := range []bool{false, true} {
			name := tc.name + "/contended, acquired only"
			if noNow {
				name += ", no now_ns"
			}
			t.Run(name, func(t *testing.T) { contendedWaitExact(t, tc.mk(), noNow) })
		}
	}
}

// contendedWaitExact: a contended acquisition under a lock_acquired-only
// table, with or without the declaration that the table never reads
// NowNS: its wait runs from the first clock read the waiter makes, the
// stamp lock_contended takes (a wrapper's start time), to lock_acquired's.
// The clock stands still while the waiter waits and moves by 1000 before
// the holder lets go, so that is the wait, exactly.
func contendedWaitExact(t *testing.T, l Lock, noNow bool) {
	topo := topology.New(2, 4)
	var now, reads atomic.Int64
	now.Store(1)
	l.(interface{ SetClock(func() int64) }).SetClock(func() int64 {
		v := now.Load()
		reads.Add(1) // after the load: a counted read has its value
		return v
	})
	holder, tk := task.NewOnCPU(topo, 1), task.NewOnCPU(topo, 0)
	var waited atomic.Int64
	l.(Hooked).HookSlot().Replace("acquired", &Hooks{OnAcquired: func(ev *Event) {
		if ev.Task == tk {
			waited.Store(ev.WaitNS)
		}
	}, AcquiredNoNow: noNow})
	for _, s := range sidesOf(l) {
		l.Lock(holder)
		waited.Store(-1)
		reads.Store(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.lock(tk)
			s.unlock(tk)
		}()
		for reads.Load() == 0 {
			runtime.Gosched()
		}
		now.Add(1000)
		l.Unlock(holder)
		<-done
		if w := waited.Load(); w != 1000 {
			t.Errorf("%s: WaitNS=%d, want 1000: from the waiter's first stamp to its lock_acquired", s.name, w)
		}
	}
}

// drainChecked builds fresh full hook tables whose hooks log events for
// one task and fail the test if they run after their table's drain was
// observed (retire) — the livepatch guarantee the peek-then-pin protocol
// must keep.
type drainChecked struct {
	t     *testing.T
	watch *task.T

	mu  sync.Mutex
	log []recordedEvent
}

func (d *drainChecked) table() (h *Hooks, retire func()) {
	var retired atomic.Bool
	hook := func(kind string) func(*Event) {
		return func(ev *Event) {
			if retired.Load() {
				d.t.Errorf("%s ran on a table whose drain had completed", kind)
			}
			if ev.WaitNS < 0 || ev.HoldNS < 0 {
				d.t.Errorf("%s: wait=%d hold=%d", kind, ev.WaitNS, ev.HoldNS)
			}
			if ev.Task == d.watch {
				d.mu.Lock()
				d.log = append(d.log, recordedEvent{kind, *ev})
				d.mu.Unlock()
			}
		}
	}
	h = &Hooks{
		OnAcquire: hook("acquire"), OnContended: hook("contended"),
		OnAcquired: hook("acquired"), OnRelease: hook("release"),
	}
	return h, func() { retired.Store(true) }
}

// churn publishes a fresh full table and withdraws it again, a thousand
// times a second, until stop closes.
func (d *drainChecked) churn(slot *livepatch.Slot[Hooks], swaps *atomic.Int32, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond / 2)
	defer tick.Stop()
	for {
		h, retire := d.table()
		slot.Replace("on", h)
		<-tick.C
		slot.Replace("off", nil).Wait()
		retire()
		swaps.Add(1)
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// TestAttachWhileWaiting: a waiter queued on an unhooked lock when a full
// table is published reports a wait measured from its contended call (the
// only clock read it had made), and a positive hold. The holder, whose
// section the table was published in the middle of, reports a hold of 0
// (unknown) unless that section happened to be drawn. The second pass
// repeats it with the table swapped against nil at 1 kHz: whatever the
// waiter catches, no hook outlives its table's drain and no event carries
// a negative wait or hold.
func TestAttachWhileWaiting(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range invariantRoster() {
		if !waitsItself(tc.mk()) {
			continue // a wrapper never learns its operation waited
		}
		for _, churn := range []bool{false, true} {
			name := tc.name
			if churn {
				name += "/churn"
			}
			t.Run(name, func(t *testing.T) {
				lockIDs.Store(0)
				l := tc.mk()
				slot := l.(Hooked).HookSlot()
				tick := stepClock(l)
				holder, tk := task.NewOnCPU(topo, 1), task.NewOnCPU(topo, 0)
				d := &drainChecked{t: t, watch: tk}

				l.Lock(holder)
				mark := tick.Load()
				done := make(chan struct{})
				go func() {
					defer close(done)
					l.Lock(tk)
					l.Unlock(tk)
				}()
				// With no table, begin reads no clock: the waiter's first
				// read is the one contended makes for its start time.
				for tick.Load() == mark {
					runtime.Gosched()
				}

				stop := make(chan struct{})
				var swapper sync.WaitGroup
				if churn {
					var swaps atomic.Int32
					swapper.Add(1)
					go func() {
						defer swapper.Done()
						d.churn(slot, &swaps, stop)
					}()
					for swaps.Load() < 5 { // a few swaps land while tk waits
						runtime.Gosched()
					}
				} else {
					h, _ := d.table()
					slot.Replace("on", h)
				}
				l.Unlock(holder)
				<-done
				close(stop)
				swapper.Wait()

				if m := tk.HeldMask() | holder.HeldMask(); m != 0 {
					t.Errorf("held mask %#x after release", m)
				}
				if churn {
					return
				}
				if len(d.log) != 2 || d.log[0].kind != "acquired" || d.log[1].kind != "release" {
					t.Fatalf("waiter events %v, want acquired, release", d.log)
				}
				if w := d.log[0].ev.WaitNS; w <= 0 {
					t.Errorf("WaitNS=%d, want the contended→acquired time", w)
				}
				if h := d.log[1].ev.HoldNS; h <= 0 {
					t.Errorf("HoldNS=%d, want > 0", h)
				}
			})
		}
	}
}

// seenDeadline bounds the wait for the shuffler to hand w to cmp_node:
// microseconds when healthy. The test fails past it with every
// goroutine's stack, and leaves the queued tasks where they are.
const seenDeadline = 30 * time.Second

// TestUnhookedLockFeedsOtherLocksPolicies: what a task accrues on a lock
// with nothing attached is what another lock's cmp_node sees for it — the
// held mask exactly, from the first acquisition on, and the
// critical-section average as an estimate from the sections the task's
// draw timed.
func TestUnhookedLockFeedsOtherLocksPolicies(t *testing.T) {
	topo := topology.New(2, 4)
	for _, tc := range invariantRoster() {
		t.Run(tc.name, func(t *testing.T) {
			lockIDs.Store(0)
			a := tc.mk() // never hooked
			stepClock(a)
			held := uint64(1) << a.ID()
			if u := wrapped(a); u != nil { // held, and timed, alongside a
				stepClock(u)
				held |= 1 << u.ID()
			}
			// The head shuffles while it waits alone too; don't let it
			// spend its rounds before the others have queued.
			b := NewShflLock("b", WithMaxRounds(1<<30))
			w := task.NewOnCPU(topo, 0)

			var seen atomic.Bool
			var mask atomic.Uint64
			var csAvg atomic.Int64
			b.HookSlot().Replace("cmp", &Hooks{CmpNode: func(info *ShuffleInfo) bool {
				if info.Curr.Task == w {
					mask.Store(w.HeldMask())
					csAvg.Store(w.CSAverage())
					seen.Store(true)
				}
				return false
			}})

			a.Lock(w)
			if w.HeldMask() != held {
				t.Errorf("held mask %#x after one acquisition, want exactly %#x", w.HeldMask(), held)
			}
			a.Unlock(w)
			if m := w.HeldMask(); m != 0 {
				t.Errorf("held mask %#x after one release", m)
			}
			// Every timed section is one clock step long: 10 ns.
			const sections, trueNS = 2048, 10.0
			for i := 1; i < sections; i++ {
				a.Lock(w)
				a.Unlock(w)
			}
			a.Lock(w) // and a is held while w queues on b

			holder := task.NewOnCPU(topo, 1)
			b.Lock(holder)
			// head, w, tail — one at a time, so w is the interior node the
			// head's shuffler hands to cmp_node (the tail is never scanned).
			var wg sync.WaitGroup
			for _, tk := range []*task.T{task.NewOnCPU(topo, 2), w, task.NewOnCPU(topo, 3)} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.Lock(tk)
					b.Unlock(tk)
				}()
				for !isTail(b, tk) {
					runtime.Gosched()
				}
			}
			for deadline := time.Now().Add(seenDeadline); !seen.Load(); {
				if time.Now().After(deadline) {
					var dump strings.Builder
					_ = pprof.Lookup("goroutine").WriteTo(&dump, 2)
					t.Fatalf("cmp_node never saw w after %v; goroutines:\n%s", seenDeadline, dump.String())
				}
				runtime.Gosched()
			}
			b.Unlock(holder)
			wg.Wait()
			a.Unlock(w)

			if want := uint64(1) << a.ID(); mask.Load()&want == 0 {
				t.Errorf("cmp_node saw held mask %#x, want bit %d of the unhooked lock", mask.Load(), a.ID())
			}
			if got := csAvg.Load(); !within15(got, trueNS) {
				t.Errorf("cmp_node saw cs average %d after %d sections, want within 15%% of %v", got, sections, trueNS)
			}
			if m := w.HeldMask(); m != 0 {
				t.Errorf("held mask %#x after release", m)
			}
		})
	}
}
