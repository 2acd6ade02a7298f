package locks

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
			l := tc.mk(topo)
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
				// announced itself (same socket, so the cohort lock
				// contends on its local tier).
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
// before the instrumentation core replaced its hand-rolled call sites.
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
		"acquired id=0 now=50 wait=10 hold=0 q=0 reader=false",
		"acquire id=0 now=70 wait=0 hold=0 q=0 reader=false",
		"contended id=0 now=80 wait=0 hold=0 q=0 reader=false",
		"release id=0 now=100 wait=0 hold=50 q=1 reader=false",
		"acquired id=0 now=110 wait=40 hold=0 q=0 reader=false",
		"release id=0 now=120 wait=0 hold=10 q=0 reader=false",
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

// TestShflRWLockIsOneLock: the readers-writer lock and its writer queue
// share one hookable, so a safety trip in the shuffler is visible on —
// and reset through — the lock the framework registered.
func TestShflRWLockIsOneLock(t *testing.T) {
	l := NewShflRWLock("one")
	w := l.WriterQueue()
	if w.ID() != l.ID() || w.HookSlot() != l.HookSlot() {
		t.Fatalf("writer queue has its own identity: id %d/%d", w.ID(), l.ID())
	}
	w.disablePolicy("tripped")
	if got := l.SafetyError(); got != "tripped" {
		t.Errorf("SafetyError on the RW lock = %q, want the writer queue's trip", got)
	}
	l.ResetSafety()
	if got := w.SafetyError(); got != "" {
		t.Errorf("ResetSafety on the RW lock left the writer queue disabled: %q", got)
	}
}
