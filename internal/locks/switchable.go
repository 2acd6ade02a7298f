package locks

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/livepatch"
	"concord/internal/task"
)

// ErrSwitchAborted is returned by SwitchTimeout when the old
// implementation failed to drain within the deadline and the switch was
// rolled back (the lock stays on the old implementation).
var ErrSwitchAborted = errors.New("locks: implementation switch aborted (drain deadline exceeded)")

// SwitchableRWLock realizes §3.1.1's "lock switching" use case literally:
// a readers-writer lock whose *implementation* can be replaced at
// runtime — e.g. from a neutral rwsem to BRAVO's reader-biased design
// for a read-mostly phase, and back for a write burst — without stopping
// the application.
//
// The mechanism is the livepatch slot: every acquisition pins the
// current implementation and remembers it until the matching release,
// so in-flight critical sections always unlock the lock they locked.
// Switch publishes the new implementation for new acquisitions and
// returns a patch whose Wait completes when the old implementation has
// fully drained — at which point it can be torn down.
type SwitchableRWLock struct {
	hookable
	occ  occState // optimistic read tier at wrapper level (occ.go)
	slot *livepatch.Slot[rwImpl]

	// held maps a task to its pinned acquisition state. A task may hold
	// this lock once at a time (read or write), like a kernel rwsem.
	held sync.Map // taskID int64 -> *pinned

	// switchMu serializes switch attempts; residual holds the patches of
	// aborted attempts whose drains are still outstanding (see
	// switchBounded).
	switchMu sync.Mutex
	residual []*livepatch.Patch

	switches atomic.Int64
	aborts   atomic.Int64
}

// Switch resolution states (rwImpl.state). A switched-in implementation
// starts pending; exactly one of the drain goroutine (ready) and the
// deadline path (aborted) wins the CAS from pending, so a switch
// resolves exactly once even when the drain races the deadline.
const (
	rwPending int32 = iota
	rwReady
	rwAborted
)

// rwImpl wraps the underlying lock for slot storage. ready is closed
// once the *previous* implementation has drained: acquisitions on a
// freshly switched-in lock block on it, so holders of the old lock and
// holders of the new one can never overlap — the property that keeps
// mutual exclusion continuous across a switch. aborted is closed
// instead when a bounded switch gave up waiting for that drain; blocked
// acquirers then retry against the rolled-back implementation.
type rwImpl struct {
	l       RWLock
	ready   chan struct{}
	aborted chan struct{} // nil for implementations that can't abort
	state   atomic.Int32
}

// pinned records one in-flight acquisition.
type pinned struct {
	impl    RWLock
	release livepatch.Held[rwImpl]
	reader  bool
}

// NewSwitchableRWLock returns a switchable lock starting with initial.
func NewSwitchableRWLock(name string, initial RWLock) *SwitchableRWLock {
	s := &SwitchableRWLock{hookable: newHookable(name)}
	ready := make(chan struct{})
	close(ready)
	impl := &rwImpl{l: initial, ready: ready}
	impl.state.Store(rwReady)
	s.slot = livepatch.NewSlot(impl)
	return s
}

// Current returns the implementation new acquisitions will use.
func (s *SwitchableRWLock) Current() RWLock { return s.slot.Peek().l }

// Switches reports how many implementation switches have occurred.
func (s *SwitchableRWLock) Switches() int64 { return s.switches.Load() }

// Aborts reports how many switches were aborted at their drain deadline.
func (s *SwitchableRWLock) Aborts() int64 { return s.aborts.Load() }

// Switch atomically replaces the implementation. New acquisitions
// target next immediately but block until every acquisition made on the
// previous implementation has been released (so exclusion is continuous
// across the switch); the returned patch's Wait observes the same drain
// point.
func (s *SwitchableRWLock) Switch(next RWLock) *livepatch.Patch {
	patch, _ := s.switchBounded(next, 0)
	return patch
}

// SwitchTimeout is Switch with bounded-time degradation: if the old
// implementation has not drained within d, the switch is aborted — the
// lock stays on (rolls back to) the old implementation, acquirers
// blocked behind the switch retry against it, and ErrSwitchAborted is
// returned along with the rollback patch. A wedged critical section
// then costs a bounded stall instead of wedging every future acquirer.
func (s *SwitchableRWLock) SwitchTimeout(next RWLock, d time.Duration) (*livepatch.Patch, error) {
	return s.switchBounded(next, d)
}

func (s *SwitchableRWLock) switchBounded(next RWLock, d time.Duration) (*livepatch.Patch, error) {
	s.switchMu.Lock()
	defer s.switchMu.Unlock()
	s.switches.Add(1)

	// An aborted switch rolls back by republishing the old implementation
	// as a *fresh* livepatch version, which splits that implementation's
	// holders across two epochs: holders from before the aborted attempt
	// stay pinned on the original version, which no later Replace drains.
	// Their patches are kept here as residual drains, and every subsequent
	// switch's ready gate waits for them too — otherwise a long-lived
	// pre-abort holder could still be inside its critical section when a
	// later switch opens the new implementation, breaking exclusion.
	kept := s.residual[:0]
	for _, r := range s.residual {
		if !r.WaitTimeout(0) {
			kept = append(kept, r)
		}
	}
	s.residual = kept
	residual := append([]*livepatch.Patch(nil), kept...)

	impl := &rwImpl{l: next, ready: make(chan struct{}), aborted: make(chan struct{})}
	patch := s.slot.Replace("switch:"+next.Name(), impl)
	go func() {
		patch.Wait()
		for _, r := range residual {
			r.Wait()
		}
		if impl.state.CompareAndSwap(rwPending, rwReady) {
			close(impl.ready)
		}
	}()
	if d <= 0 {
		return patch, nil
	}
	// Bounded switch: wait on the full ready gate (slot drain plus
	// residual drains), not just the slot drain, so the deadline honours
	// its degradation promise even behind residue of an earlier abort.
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-impl.ready:
		return patch, nil
	case <-timer.C:
	}
	if !impl.state.CompareAndSwap(rwPending, rwAborted) {
		return patch, nil // drain won the race after all
	}
	close(impl.aborted)
	s.aborts.Add(1)
	s.residual = append(s.residual, patch)
	// Republish the old implementation; its ready channel is already
	// closed, so retrying acquirers proceed on it immediately.
	return patch.Rollback(), ErrSwitchAborted
}

func (s *SwitchableRWLock) pin(t *task.T, reader bool) *pinned {
	for {
		impl, release := s.slot.Get()
		select {
		case <-impl.ready:
			// Previous implementation drained; impl is live.
		case <-impl.aborted:
			// Switch to impl was aborted; retry against the rolled-back
			// implementation now in the slot.
			release.Release()
			continue
		}
		p := &pinned{impl: impl.l, release: release, reader: reader}
		if _, loaded := s.held.LoadOrStore(t.ID(), p); loaded {
			release.Release()
			panic("locks: SwitchableRWLock does not support nested acquisition by one task")
		}
		return p
	}
}

func (s *SwitchableRWLock) unpin(t *task.T, reader bool) *pinned {
	v, ok := s.held.Load(t.ID())
	if !ok {
		panic("locks: unlock of SwitchableRWLock not held by task")
	}
	p := v.(*pinned)
	if p.reader != reader {
		// Leave the acquisition intact so the caller can still release
		// it correctly after observing the panic.
		panic("locks: SwitchableRWLock lock/unlock mode mismatch")
	}
	s.held.Delete(t.ID())
	return p
}

// Lock implements Lock (writer side).
func (s *SwitchableRWLock) Lock(t *task.T) {
	start := s.wrapBegin(t, false)
	p := s.pin(t, false)
	p.impl.Lock(t)
	s.acquired(t, start, 0, false)
	s.occ.beginWrite()
}

// tryPin is pin for Try paths: it fails instead of blocking when a
// switch is still draining.
func (s *SwitchableRWLock) tryPin(t *task.T, reader bool) (*pinned, bool) {
	impl, release := s.slot.Get()
	select {
	case <-impl.ready:
	default:
		release.Release()
		return nil, false
	}
	p := &pinned{impl: impl.l, release: release, reader: reader}
	if _, loaded := s.held.LoadOrStore(t.ID(), p); loaded {
		release.Release()
		panic("locks: SwitchableRWLock does not support nested acquisition by one task")
	}
	return p, true
}

// TryLock implements Lock.
func (s *SwitchableRWLock) TryLock(t *task.T) bool {
	p, ok := s.tryPin(t, false)
	if !ok {
		return false
	}
	if !p.impl.TryLock(t) {
		s.held.Delete(t.ID())
		p.release.Release()
		return false
	}
	s.acquired(t, 0, 0, false)
	s.occ.beginWrite()
	return true
}

// Unlock implements Lock.
func (s *SwitchableRWLock) Unlock(t *task.T) {
	p := s.unpin(t, false)
	s.occ.endWrite() // close the write section while exclusion is still held
	s.release(t, 0, false)
	p.impl.Unlock(t)
	p.release.Release()
}

// RLock implements RWLock.
func (s *SwitchableRWLock) RLock(t *task.T) {
	start := s.wrapBegin(t, true)
	p := s.pin(t, true)
	p.impl.RLock(t)
	s.acquired(t, start, 0, true)
}

// TryRLock implements RWLock.
func (s *SwitchableRWLock) TryRLock(t *task.T) bool {
	p, ok := s.tryPin(t, true)
	if !ok {
		return false
	}
	if !p.impl.TryRLock(t) {
		s.held.Delete(t.ID())
		p.release.Release()
		return false
	}
	s.acquired(t, 0, 0, true)
	return true
}

// RUnlock implements RWLock.
func (s *SwitchableRWLock) RUnlock(t *task.T) {
	p := s.unpin(t, true)
	s.release(t, 0, true)
	p.impl.RUnlock(t)
	p.release.Release()
}

var _ RWLock = (*SwitchableRWLock)(nil)
