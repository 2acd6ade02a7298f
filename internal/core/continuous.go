package core

import (
	"errors"

	"concord/internal/locks"
	"concord/internal/profile"
)

// ErrNoContinuousProfiling is returned by profile exports when the
// framework was built without a continuous profiler.
var ErrNoContinuousProfiling = errors.New("concord: continuous profiling not enabled")

// EnableContinuousProfiling attaches a continuous contention profiler
// to the framework: every registered lock (current and future) gets the
// profiler's sampling-gated hooks composed after the lock's own profiler
// (StartProfiling) and before telemetry, and policies attached afterwards
// can read the windowed signals through the lock_stats_read helper. Call
// with nil to detach (existing hook chains are re-published without the
// profiler).
func (f *Framework) EnableContinuousProfiling(c *profile.Continuous) {
	f.mu.Lock()
	f.cprof = c

	// Re-publish every lock's hook table so the profiler composes in
	// (or out). Policy adapters resolve their lock_stats_read closure at
	// attach time, so policies attached before this call keep reading 0
	// until re-attached; hook instrumentation switches immediately.
	type repatch struct {
		st    *lockState
		hooks *locks.Hooks
	}
	var patches []repatch
	for _, st := range f.locks {
		observeSpeculativeReads(c, st)
		if st.attached != nil && st.sup != nil && st.sup.ad != nil {
			st.sup.ad.setLockStats(f.statReaderLocked(st))
		}
		patches = append(patches, repatch{st, f.currentHooksLocked(st)})
	}
	f.mu.Unlock()

	for _, r := range patches {
		r.st.hooked.HookSlot().Replace("cprofile:"+r.st.lock.Name(), r.hooks)
	}
}

// statReaderLocked returns the lock_stats_read backing closure for one
// lock, or nil without a continuous profiler. Called with f.mu held.
func (f *Framework) statReaderLocked(st *lockState) func(uint64) uint64 {
	if f.cprof == nil {
		return nil
	}
	return f.cprof.StatReader(st.lock.ID(), st.lock.Name())
}

// observeSpeculativeReads hands profiler c the validated-read counter of
// a lock with an optimistic tier: such reads raise no lock_acquired for
// the profiler's hooks to see, so its windows pull the lock's own count
// instead (DESIGN §7 decision 7). It runs where a lock and a profiler
// first meet — RegisterLock, EnableContinuousProfiling and StartProfiling
// — and is a no-op for a nil profiler or a lock without the tier. Called
// with f.mu held.
func observeSpeculativeReads(c *profile.Continuous, st *lockState) {
	if c == nil {
		return
	}
	if occ, ok := st.lock.(locks.OCCCapable); ok {
		c.ObserveSpeculativeReads(st.lock.ID(), st.lock.Name(),
			func() uint64 { return occ.OCCStats().Reads })
	}
}

// ContinuousProfiler returns the profiler passed to
// EnableContinuousProfiling, or nil.
func (f *Framework) ContinuousProfiler() *profile.Continuous {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cprof
}

// ContentionProfile exports the continuous profiler's cumulative
// contention profile as a gzipped pprof protobuf (the
// /debug/concord/contention payload).
func (f *Framework) ContentionProfile() ([]byte, error) {
	c := f.ContinuousProfiler()
	if c == nil {
		return nil, ErrNoContinuousProfiling
	}
	return c.PprofProfile()
}

// WindowSnapshots returns every profiled lock's freshest profiling
// window (nil without continuous profiling).
func (f *Framework) WindowSnapshots() []profile.WindowSnapshot {
	c := f.ContinuousProfiler()
	if c == nil {
		return nil
	}
	return c.Snapshots()
}
