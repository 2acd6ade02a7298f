package livepatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"concord/internal/faultinject"
)

func TestSlotBasics(t *testing.T) {
	v1 := "one"
	s := NewSlot(&v1)
	got, release := s.Get()
	if got == nil || *got != "one" {
		t.Fatalf("Get = %v", got)
	}
	release.Release()
	if p := s.Peek(); p == nil || *p != "one" {
		t.Fatalf("Peek = %v", p)
	}
}

func TestZeroSlotHoldsNil(t *testing.T) {
	var s Slot[int]
	got, release := s.Get()
	if got != nil {
		t.Fatalf("zero slot Get = %v, want nil", got)
	}
	release.Release() // must not panic
	if s.Peek() != nil {
		t.Fatal("zero slot Peek non-nil")
	}
}

func TestReplaceVisibleImmediately(t *testing.T) {
	v1, v2 := 1, 2
	s := NewSlot(&v1)
	s.Replace("p1", &v2)
	got, release := s.Get()
	defer release.Release()
	if *got != 2 {
		t.Fatalf("after replace: %d, want 2", *got)
	}
}

func TestPatchWaitDrainsOldReaders(t *testing.T) {
	v1, v2 := 1, 2
	s := NewSlot(&v1)

	old, release := s.Get() // pin old version
	if *old != 1 {
		t.Fatal("wrong pin")
	}

	p := s.Replace("p1", &v2)
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()

	select {
	case <-done:
		t.Fatal("Wait returned while old reader still pinned")
	case <-time.After(20 * time.Millisecond):
	}

	release.Release()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait did not return after release")
	}
}

func TestPatchWaitImmediateWhenUnpinned(t *testing.T) {
	v1, v2 := 1, 2
	s := NewSlot(&v1)
	p := s.Replace("p1", &v2)
	ch := make(chan struct{})
	go func() { p.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("Wait hung with no readers")
	}
}

// A nil value is no code to run, so Get does not pin it: a reader that
// never releases cannot hold its replacement's drain open. (The non-nil
// half of the contract is TestPatchWaitDrainsOldReaders.)
func TestNilVersionIsNeverPinned(t *testing.T) {
	s := NewSlot[int](nil)
	got, held := s.Get()
	if got != nil || held != (Held[int]{}) {
		t.Fatalf("Get on a nil slot = (%v, %v), want nil and the zero Held", got, held)
	}
	if refs := s.cur.Load().refs.Load(); refs != 0 {
		t.Fatalf("nil version has %d refs after Get, want 0", refs)
	}

	v := 1
	done := make(chan struct{})
	go func() {
		s.Replace("p1", &v).Wait() // concurrent with the unreleased reader
		close(done)
	}()
	<-done
	held.Release() // the zero Held is a no-op

	// Rolling back to nil: the non-nil version still drains its readers.
	_, held = s.Get()
	p := s.Replace("p2", nil)
	if p.WaitTimeout(0) {
		t.Fatal("drain completed while the replaced value was pinned")
	}
	held.Release()
	p.Wait()
	if got, _ := s.Get(); got != nil {
		t.Fatalf("after rollback to nil: Get = %v", got)
	}
}

func TestRollback(t *testing.T) {
	v1, v2 := 1, 2
	s := NewSlot(&v1)
	p := s.Replace("p1", &v2)
	p.Wait()
	rb := p.Rollback()
	rb.Wait()
	got, release := s.Get()
	defer release.Release()
	if *got != 1 {
		t.Fatalf("after rollback: %d, want 1", *got)
	}
	if s.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2 (patch + rollback)", s.Depth())
	}
}

// TestReplacedValueIsReleased: a slot keeps nothing that reaches a value
// it no longer publishes. Once a value is replaced and its readers have
// drained it is garbage, unless the caller still holds the Patch that
// replaced it — whose Rollback needs it. Depth still counts every patch.
func TestReplacedValueIsReleased(t *testing.T) {
	type table struct{ payload [64]byte }
	s := NewSlot(&table{})
	replaced := func(name string) (weak.Pointer[table], *Patch) {
		old := s.Peek()
		p := s.Replace(name, &table{})
		p.Wait()
		return weak.Make(old), p
	}
	dropped, _ := replaced("p1")
	kept, p := replaced("p2")
	runtime.GC()
	runtime.GC()
	if dropped.Value() != nil {
		t.Error("a replaced and drained value is still reachable from the slot")
	}
	restored := kept.Value()
	if restored == nil {
		t.Fatal("the value a held Patch replaced was collected: Rollback has nothing to restore")
	}
	p.Rollback().Wait()
	if s.Peek() != restored {
		t.Error("Rollback did not restore the value its patch replaced")
	}
	if s.Depth() != 3 {
		t.Errorf("Depth = %d, want 3 (two patches and a rollback)", s.Depth())
	}
}

func TestConcurrentGetReplace(t *testing.T) {
	vals := make([]*int, 8)
	for i := range vals {
		v := i
		vals[i] = &v
	}
	s := NewSlot(vals[0])

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v, release := s.Get()
				if v == nil || *v < 0 || *v >= 8 {
					t.Errorf("bad value %v", v)
					release.Release()
					return
				}
				reads.Add(1)
				release.Release()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		p := s.Replace("p", vals[i%8])
		p.Wait() // must never deadlock against the readers
	}
	// On a single-CPU host the readers may not have been scheduled yet;
	// give them a chance before stopping.
	for reads.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Error("no reads observed")
	}
}

func TestWaitCoversOnlyDisplacedVersion(t *testing.T) {
	v1, v2, v3 := 1, 2, 3
	s := NewSlot(&v1)
	p1 := s.Replace("p1", &v2)
	p1.Wait()

	// Pin v2, then replace with v3: p2 must block, but a fresh patch p3
	// displacing v3 (unpinned) must not.
	_, release := s.Get()
	p2 := s.Replace("p2", &v3)

	blocked := make(chan struct{})
	go func() { p2.Wait(); close(blocked) }()
	select {
	case <-blocked:
		t.Fatal("p2.Wait returned while v2 pinned")
	case <-time.After(10 * time.Millisecond):
	}
	release.Release()
	<-blocked
}

func TestWaitTimeoutNeverQuiescing(t *testing.T) {
	v1, v2 := 1, 2
	s := NewSlot(&v1)

	// A reader that never quiesces: the pin is held across the patch and
	// never released until we decide the "wedge" is over.
	_, release := s.Get()
	p := s.Replace("p1", &v2)

	if p.WaitTimeout(10 * time.Millisecond) {
		t.Fatal("WaitTimeout reported drained while old reader pinned")
	}
	// A failed bounded wait must not consume or corrupt the drain: the
	// same patch completes once the reader finally releases.
	release.Release()
	if !p.WaitTimeout(time.Second) {
		t.Fatal("WaitTimeout did not observe the drain after release")
	}
	p.Wait() // and the unbounded wait agrees, without blocking
}

func TestWaitTimeoutFastPaths(t *testing.T) {
	// Replacing into a zero slot displaces nothing: there is no drain, so
	// even a zero timeout succeeds.
	var s Slot[int]
	v1 := 1
	if p := s.Replace("p0", &v1); !p.WaitTimeout(0) {
		t.Fatal("WaitTimeout on no-drain patch returned false")
	}
	// An already-drained patch succeeds without arming a timer.
	v2 := 2
	p := s.Replace("p1", &v2)
	p.Wait()
	if !p.WaitTimeout(0) {
		t.Fatal("WaitTimeout on drained patch returned false")
	}
}

func TestWaitTimeoutRollbackDegradation(t *testing.T) {
	// The bounded-drain degradation ladder: patch, give the drain a
	// deadline, and on timeout roll back rather than block forever behind
	// a wedged reader. This is the shape core uses for Patch.WaitTimeout
	// → Rollback.
	v1, v2 := 1, 2
	s := NewSlot(&v1)

	old, pin := s.Get() // the wedged invocation
	if *old != 1 {
		t.Fatal("wrong pin")
	}
	p := s.Replace("p1", &v2)
	if p.WaitTimeout(5 * time.Millisecond) {
		t.Fatal("drain completed with a wedged reader")
	}
	rb := p.Rollback()

	// New invocations are back on the old value immediately.
	got, release := s.Get()
	if *got != 1 {
		t.Fatalf("after rollback: %d, want 1", *got)
	}
	release.Release()

	// The wedged reader still holds a valid value and, once it quiesces,
	// the rollback patch's own drain (covering v2's brief reign) and the
	// original patch both complete.
	if *old != 1 {
		t.Fatal("pinned value changed under reader")
	}
	pin.Release()
	p.Wait()
	rb.Wait()
	if s.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2 (patch + rollback)", s.Depth())
	}
}

func TestInjectedDrainStall(t *testing.T) {
	// The livepatch.drain fault site holds a phantom pin on the retiring
	// version: even with zero real readers the drain must stall for the
	// injected delay, then complete on its own.
	defer faultinject.DisarmAll()
	faultinject.LivepatchDrain.Arm(faultinject.Config{
		MaxFires: 1,
		Delay:    40 * time.Millisecond,
	})

	v1, v2 := 1, 2
	s := NewSlot(&v1)
	start := time.Now()
	p := s.Replace("p1", &v2)
	if p.WaitTimeout(2 * time.Millisecond) {
		t.Fatal("phantom pin did not stall the drain")
	}
	p.Wait()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("drain completed in %v, injected stall was 40ms", elapsed)
	}

	// The site was capped at one fire: the next patch drains instantly.
	v3 := 3
	if !s.Replace("p2", &v3).WaitTimeout(0) {
		t.Error("second patch stalled after MaxFires exhausted")
	}
}

func TestConcurrentStackRollback(t *testing.T) {
	// Patchers stack Replace+Rollback pairs while readers continuously
	// pin: every observed value must be coherent, every drain must
	// terminate, and the history depth must account for exactly one
	// patch plus one rollback per iteration.
	vals := make([]*int, 4)
	for i := range vals {
		v := i + 100
		vals[i] = &v
	}
	base := 0
	s := NewSlot(&base)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v, release := s.Get()
				if v == nil || (*v != 0 && (*v < 100 || *v > 103)) {
					t.Errorf("incoherent value %v", v)
					release.Release()
					return
				}
				reads.Add(1)
				release.Release()
			}
		}()
	}

	const patchers, iters = 3, 40
	var pwg sync.WaitGroup
	for w := 0; w < patchers; w++ {
		pwg.Add(1)
		go func(w int) {
			defer pwg.Done()
			for i := 0; i < iters; i++ {
				p := s.Replace("p", vals[w%len(vals)])
				// Interleave bounded and unbounded drains; both must
				// terminate with readers churning.
				if i%2 == 0 {
					p.Wait()
				} else {
					for !p.WaitTimeout(50 * time.Millisecond) {
					}
				}
				p.Rollback().Wait()
			}
		}(w)
	}
	pwg.Wait()
	for reads.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if want := patchers * iters * 2; s.Depth() != want {
		t.Errorf("Depth = %d, want %d", s.Depth(), want)
	}
	if reads.Load() == 0 {
		t.Error("no reads observed")
	}
}

func TestPatchAnnotation(t *testing.T) {
	s := NewSlot(new(int))
	p := s.Replace("with-report", new(int))
	if p.Annotation() != nil {
		t.Fatal("fresh patch has an annotation")
	}
	type report struct{ Bound int64 }
	p.SetAnnotation(&report{Bound: 42})
	got, ok := p.Annotation().(*report)
	if !ok || got.Bound != 42 {
		t.Fatalf("Annotation() = %#v", p.Annotation())
	}
	// Replacing the annotation is allowed (last writer wins).
	p.SetAnnotation(&report{Bound: 7})
	if p.Annotation().(*report).Bound != 7 {
		t.Fatal("annotation not replaced")
	}
}
