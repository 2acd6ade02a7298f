// Package livepatch reimplements, in userspace, the two kernel-livepatch
// mechanisms Concord builds on (paper §4, Figure 1 step 6):
//
//   - atomically redirecting a function (here: a lock's hook table) to a
//     new implementation, with a consistency model: new invocations see
//     the new code immediately, and the patch "lands" only once every
//     in-flight invocation of the old code has drained;
//   - shadow variables (§4.2), which attach out-of-band state to existing
//     objects without recompiling them.
//
// The drain mechanism is an epoch reference count per published version,
// equivalent to what kpatch achieves with stack inspection: Patch.Wait
// returns only when no execution can still observe the replaced value.
package livepatch

import (
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/clock"
	"concord/internal/faultinject"
)

// Instrumentation hooks. The telemetry layer (internal/obs, wired by
// internal/core) observes patch activity through these; livepatch cannot
// import obs directly because the lock hook tables it slots live below
// it in the import graph. Both are process-global: last SetXxx wins, and
// a nil fn disables the hook.
var (
	patchObserver atomic.Pointer[func(patchName string)]
	drainObserver atomic.Pointer[func(patchName string, drainNS int64)]
)

// SetPatchObserver installs fn to be called on every Replace (one call
// per hook-table transition, before any draining).
func SetPatchObserver(fn func(patchName string)) {
	if fn == nil {
		patchObserver.Store(nil)
		return
	}
	patchObserver.Store(&fn)
}

// SetDrainObserver installs fn to be called when a replaced version
// fully drains, with the latency from retirement to
// quiescence — the livepatch consistency-point (epoch drain) latency.
// The patch name is the one given to the Replace that retired it.
func SetDrainObserver(fn func(patchName string, drainNS int64)) {
	if fn == nil {
		drainObserver.Store(nil)
		return
	}
	drainObserver.Store(&fn)
}

// version wraps one published value with its drain bookkeeping.
type version[T any] struct {
	val     *T
	refs    atomic.Int64
	retired atomic.Bool
	done    chan struct{}
	once    sync.Once

	// Drain bookkeeping, written (before retired is set) by the Replace
	// that retires this version.
	retiredBy string
	retiredAt int64
}

func (v *version[T]) finish() {
	v.once.Do(func() {
		close(v.done)
		if fn := drainObserver.Load(); fn != nil {
			(*fn)(v.retiredBy, clock.NowNS()-v.retiredAt)
		}
	})
}

func (v *version[T]) release() {
	if v.refs.Add(-1) == 0 && v.retired.Load() {
		v.finish()
	}
}

// Slot is an atomically patchable cell holding a *T (for Concord, a lock
// hook table). Readers pin the current version for the duration of one
// invocation; writers publish a replacement and can wait for old readers
// to drain.
//
// The zero Slot holds nil; use New or Replace to publish a value.
type Slot[T any] struct {
	cur atomic.Pointer[version[T]]

	mu sync.Mutex // serializes Replace
	// depth counts the patches applied. It is a count and not a list: each
	// Patch's rollback holds the value it replaced, so a slot that kept its
	// patches would keep every value it ever held.
	depth int
}

// NewSlot returns a slot initially holding val (which may be nil).
func NewSlot[T any](val *T) *Slot[T] {
	s := &Slot[T]{}
	s.cur.Store(&version[T]{val: val, done: make(chan struct{})})
	return s
}

// Held is a pinned reference to one published version. It is a plain
// value (no allocation on the hot path); Release must be called exactly
// once. The zero Held is a valid no-op.
type Held[T any] struct{ v *version[T] }

// Release unpins the version; any Patch waiting on it may then complete.
func (h Held[T]) Release() {
	if h.v != nil {
		h.v.release()
	}
}

// Get pins and returns the current value together with a Held handle.
// The caller must call Release exactly once when it no longer uses the
// value; until then, any Patch that replaced this version does not
// complete.
//
// A version whose value is nil is never pinned: there is no code to run
// against a nil table, so there is nothing to drain, and Get returns nil
// with the zero Held after one load. A Replace of a nil version therefore
// completes at once.
//
// Get never blocks and is safe from any goroutine; pinning a non-nil
// value costs two locked operations (the pin and, in Release, the unpin)
// plus a validation load, with no allocation.
func (s *Slot[T]) Get() (*T, Held[T]) {
	for {
		v := s.cur.Load()
		if v == nil || v.val == nil {
			return nil, Held[T]{}
		}
		v.refs.Add(1)
		if s.cur.Load() == v {
			return v.val, Held[T]{v: v}
		}
		// A Replace won the race between our load and pin; back out and
		// retry against the new version.
		v.release()
	}
}

// Peek returns the current value without pinning. A published value must
// be immutable — writers change a slot by Replace, never by storing
// through the pointer — so a peeked value is safe to read; what Peek
// does not give is the drain guarantee: a Patch.Wait may return while the
// caller still uses it. Code that runs the value pins it with Get.
func (s *Slot[T]) Peek() *T {
	if v := s.cur.Load(); v != nil {
		return v.val
	}
	return nil
}

// Patch is an in-progress or completed replacement of a slot's value.
type Patch struct {
	done     chan struct{} // drain completion; nil when nothing drained
	rollback func() *Patch
	name     string

	annMu      sync.Mutex
	annotation any
}

// Name reports the label given at Replace time.
func (p *Patch) Name() string { return p.name }

// SetAnnotation attaches caller metadata to the patch — Concord records
// the policy's static-analysis reports on the attach patch so the
// installed artifact carries its own proof. The kernel analogue is the
// metadata blob a livepatch module ships alongside its code.
func (p *Patch) SetAnnotation(v any) {
	p.annMu.Lock()
	p.annotation = v
	p.annMu.Unlock()
}

// Annotation returns the metadata set by SetAnnotation, or nil.
func (p *Patch) Annotation() any {
	p.annMu.Lock()
	defer p.annMu.Unlock()
	return p.annotation
}

// Wait blocks until every Get that returned the *previous* value has
// released it — the livepatch consistency point. After Wait, no code is
// still running against the replaced hooks.
func (p *Patch) Wait() {
	if p.done != nil {
		<-p.done
	}
}

// WaitTimeout is Wait with a deadline: it reports whether the drain
// completed within d. A false return means some execution still holds
// the replaced value — the caller can degrade (typically Rollback)
// instead of blocking forever behind a wedged reader.
func (p *Patch) WaitTimeout(d time.Duration) bool {
	if p.done == nil {
		return true
	}
	select {
	case <-p.done:
		return true
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-p.done:
		return true
	case <-timer.C:
		return false
	}
}

// Rollback re-publishes the value this patch replaced and returns the
// resulting patch (whose Wait drains users of the rolled-back value).
func (p *Patch) Rollback() *Patch { return p.rollback() }

// Replace atomically publishes val and returns a Patch. Concurrent
// Replace calls serialize; each patch's Wait covers the version it
// displaced.
func (s *Slot[T]) Replace(name string, val *T) *Patch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replaceLocked(name, val)
}

func (s *Slot[T]) replaceLocked(name string, val *T) *Patch {
	if fn := patchObserver.Load(); fn != nil {
		(*fn)(name)
	}
	next := &version[T]{val: val, done: make(chan struct{})}
	old := s.cur.Swap(next)

	p := &Patch{name: name}
	var oldVal *T
	if old != nil {
		// Injected drain stall: hold a phantom reader pin on the retiring
		// version for the configured delay, exactly as a wedged hook
		// invocation would. Pinned before retirement so the accounting
		// below cannot observe an intermediate state.
		if faultinject.LivepatchDrain.Enabled() {
			if flt, ok := faultinject.LivepatchDrain.Fire(); ok && flt.Delay > 0 {
				old.refs.Add(1)
				time.AfterFunc(flt.Delay, old.release)
			}
		}
		oldVal = old.val
		old.retiredBy = name
		old.retiredAt = clock.NowNS()
		old.retired.Store(true)
		if old.refs.Load() == 0 {
			old.finish()
		}
		p.done = old.done
	}
	p.rollback = func() *Patch {
		return s.Replace(name+"(rollback)", oldVal)
	}
	s.depth++
	return p
}

// Depth reports how many patches have been applied to this slot.
func (s *Slot[T]) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// --- Shadow variables ---

type shadowKey struct {
	obj any
	id  uint64
}

// ShadowStore attaches out-of-band data to existing objects, mirroring
// the kernel's klp_shadow_* API. Concord uses it to extend lock queue
// nodes with policy-specific state without changing their layout (§4.2).
type ShadowStore struct {
	mu sync.RWMutex
	m  map[shadowKey]any
}

// NewShadowStore returns an empty store.
func NewShadowStore() *ShadowStore {
	return &ShadowStore{m: make(map[shadowKey]any)}
}

// Get returns the shadow value attached to (obj, id), if any.
func (s *ShadowStore) Get(obj any, id uint64) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[shadowKey{obj, id}]
	return v, ok
}

// GetOrAlloc returns the shadow value for (obj, id), calling ctor to
// create it if absent (klp_shadow_get_or_alloc). ctor runs at most once
// per key.
func (s *ShadowStore) GetOrAlloc(obj any, id uint64, ctor func() any) any {
	k := shadowKey{obj, id}
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok = s.m[k]; ok {
		return v
	}
	v = ctor()
	s.m[k] = v
	return v
}

// Attach stores a shadow value, replacing any existing one.
func (s *ShadowStore) Attach(obj any, id uint64, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[shadowKey{obj, id}] = val
}

// Detach removes the shadow value for (obj, id), reporting whether one
// existed (klp_shadow_free).
func (s *ShadowStore) Detach(obj any, id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := shadowKey{obj, id}
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	return true
}

// FreeAll removes every shadow value with the given id across all
// objects (klp_shadow_free_all).
func (s *ShadowStore) FreeAll(id uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.m {
		if k.id == id {
			delete(s.m, k)
			n++
		}
	}
	return n
}

// Len reports the number of attached shadow values.
func (s *ShadowStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
