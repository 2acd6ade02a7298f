package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// Optimistic read tier, per "Optimistic Concurrency Control for
// Real-world Go Programs": a per-lock sequence word is bumped by every
// writer acquisition and release (odd while a writer holds the lock),
// and promoted locks run read sections speculatively — no lock taken,
// the section re-executed until the sequence validates, with a bounded
// retry budget before falling back to the pessimistic read lock. The
// promotion/demotion decision is per lock instance and closed-loop:
// a policy consuming lock_stats_read window data (read share, p99 wait)
// flips the state through the occ_set helper, realizing that paper's
// dynamic-profiling loop on our own policy plane.

// OCCMode is the per-lock control state of the optimistic tier.
type OCCMode uint32

const (
	// OCCAuto lets the attached policy drive promotion/demotion.
	OCCAuto OCCMode = iota
	// OCCOff forces the pessimistic path (the ablation baseline);
	// policy promotion requests are ignored.
	OCCOff
	// OCCOn forces speculation regardless of policy state.
	OCCOn
)

// String implements fmt.Stringer.
func (m OCCMode) String() string {
	switch m {
	case OCCOff:
		return "off"
	case OCCOn:
		return "on"
	default:
		return "auto"
	}
}

// OCCModeByName parses an OCC mode name.
func OCCModeByName(s string) (OCCMode, bool) {
	switch s {
	case "auto":
		return OCCAuto, true
	case "off":
		return OCCOff, true
	case "on":
		return OCCOn, true
	}
	return OCCAuto, false
}

// occRetryBudget bounds speculative re-execution before the section
// falls back to the pessimistic read lock: enough to ride out a short
// writer, not enough to starve under a write burst.
const occRetryBudget = 3

// OCCStats is the optimistic tier's telemetry snapshot.
type OCCStats struct {
	Reads      uint64 // speculative read sections that validated
	Aborts     uint64 // failed validations (each retry counts)
	Promotions uint64
	Demotions  uint64
	Promoted   bool
	Mode       OCCMode
}

// OCCCapable is implemented by locks carrying an optimistic read tier.
// The framework probes it at attach time to route the occ_set helper
// and the SetOCC ablation control.
type OCCCapable interface {
	// OCCSetMode sets the control mode (auto/off/on).
	OCCSetMode(m OCCMode)
	// OCCGetMode returns the control mode.
	OCCGetMode() OCCMode
	// OCCPromote requests policy-driven promotion (on=true) or demotion.
	// It is a no-op outside OCCAuto; returns whether the state changed.
	OCCPromote(on bool) bool
	// OCCStats snapshots the tier's counters. It must take no lock and
	// raise no event: the continuous profiler calls it while rotating a
	// window, possibly from inside a hook of this lock.
	OCCStats() OCCStats
}

// occStripes is how many line-padded counters the validated-read count is
// spread over (a power of two: the stripe index is the top bits of a
// hash). More stripes mean fewer readers sharing a line and a longer sum
// in OCCStats; at 16 a lock carries 1 KiB of them.
const occStripes = 16

// occState embeds the optimistic tier into a readers-writer lock. The
// owning lock must call beginWrite as the last step of every writer
// acquisition and endWrite as the first step of every writer release;
// speculative readers never touch the lock itself.
//
// The layout follows who writes what (DESIGN §7 decision 7). The first
// line is loaded by every reader and written only by writers and the
// control plane; the second takes the rare events; the validated-read
// count, the one word a speculative reader writes, is striped so that a
// reader's add lands on a line no other CPU writes. The pads are whole
// lines, so none of this depends on how the enclosing lock is aligned.
type occState struct {
	seq      atomic.Uint64 // odd while a writer's stores may be in flight
	mode     atomic.Uint32 // OCCMode
	promoted atomic.Bool   // policy-driven state, honoured in OCCAuto
	_        [64]byte

	aborts     atomic.Uint64
	promotions atomic.Uint64
	demotions  atomic.Uint64
	_          [64]byte

	reads [occStripes]struct {
		n atomic.Uint64
		_ [56]byte
	}
}

// beginWrite marks the writer critical section open (seq becomes odd).
// Runs under the lock's exclusion, so bumps are totally ordered. Callers
// invoke it after acquired(...), not before: the lock_acquired hooks write
// nothing a reader looks at, and a sequence that is odd while they run
// aborts every reader for the length of a policy fire. What the seqlock
// needs is that the word is odd before the writer's first store, and the
// writer cannot store before Lock returns.
func (o *occState) beginWrite() { o.seq.Add(1) }

// endWrite marks it closed (seq becomes even again).
func (o *occState) endWrite() { o.seq.Add(1) }

// speculative reports whether read sections should currently speculate.
func (o *occState) speculative() bool {
	switch OCCMode(o.mode.Load()) {
	case OCCOn:
		return true
	case OCCOff:
		return false
	default:
		return o.promoted.Load()
	}
}

// OCCSetMode implements OCCCapable.
func (o *occState) OCCSetMode(m OCCMode) { o.mode.Store(uint32(m)) }

// OCCGetMode implements OCCCapable.
func (o *occState) OCCGetMode() OCCMode { return OCCMode(o.mode.Load()) }

// OCCPromote implements OCCCapable.
func (o *occState) OCCPromote(on bool) bool {
	if OCCMode(o.mode.Load()) != OCCAuto {
		return false
	}
	// Load first: a CAS is a locked write to the line every speculative
	// reader loads whether or not it succeeds, and occ-gate.pol asks for
	// the state the lock is already in on nearly every fire.
	if o.promoted.Load() == on || !o.promoted.CompareAndSwap(!on, on) {
		return false
	}
	if on {
		o.promotions.Add(1)
	} else {
		o.demotions.Add(1)
	}
	return true
}

// OCCStats implements OCCCapable: atomic loads only, as the interface
// requires. Every stripe is monotone, so their sum is a valid reading of
// the exact count: no less than it was when the call began, no more than
// it is when the call returns.
func (o *occState) OCCStats() OCCStats {
	var reads uint64
	for i := range o.reads {
		reads += o.reads[i].n.Load()
	}
	return OCCStats{
		Reads:      reads,
		Aborts:     o.aborts.Load(),
		Promotions: o.promotions.Load(),
		Demotions:  o.demotions.Load(),
		Promoted:   o.promoted.Load(),
		Mode:       OCCMode(o.mode.Load()),
	}
}

// optRead runs fn as a sequence-validated speculative read section when
// the tier is engaged, falling back to the pessimistic closure after the
// retry budget. Contract for fn (standard seqlock rules): it may execute
// several times, so it must only write caller-local state (overwritten
// on re-execution), it must load shared words atomically, and it must
// tolerate observing a torn multi-word snapshot — the final, validated
// (or lock-protected) execution is the one whose results count.
//
// A validated section acquired nothing, so it raises no event, reads no
// clock and pins no table: it is counted, on the stripe t's CPU hashes to
// (Fibonacci hashing, top bits; two tasks that collide share a line,
// never lose a count). The continuous profiler pulls the count into each
// window it seals (profile.Continuous.ObserveSpeculativeReads), which is
// what keeps the promotion policy's read share truthful after promotion.
func (o *occState) optRead(t *task.T, fn func(), pessimistic func()) {
	if o.speculative() {
		for attempt := 0; attempt < occRetryBudget; attempt++ {
			s1 := o.seq.Load()
			if s1&1 == 0 {
				fn()
				if o.seq.Load() == s1 {
					o.reads[uint32(t.CPU())*0x9E3779B9/(1<<32/occStripes)].n.Add(1)
					return
				}
			}
			o.aborts.Add(1)
		}
	}
	pessimistic()
}

// --- RWSem wiring ---

// OptRead runs fn as a speculative read section of the semaphore (see
// occState.optRead for the re-execution contract), falling back to
// RLock/RUnlock after the retry budget or while the tier is disengaged.
func (s *RWSem) OptRead(t *task.T, fn func()) {
	s.occ.optRead(t, fn, func() { s.RLock(t); fn(); s.RUnlock(t) })
}

// OCCSetMode implements OCCCapable.
func (s *RWSem) OCCSetMode(m OCCMode) { s.occ.OCCSetMode(m) }

// OCCGetMode implements OCCCapable.
func (s *RWSem) OCCGetMode() OCCMode { return s.occ.OCCGetMode() }

// OCCPromote implements OCCCapable.
func (s *RWSem) OCCPromote(on bool) bool { return s.occ.OCCPromote(on) }

// OCCStats implements OCCCapable.
func (s *RWSem) OCCStats() OCCStats { return s.occ.OCCStats() }

// --- SwitchableRWLock wiring ---

// The switchable lock carries the sequence word at the wrapper level:
// every writer passes through SwitchableRWLock.Lock/Unlock regardless of
// which implementation is live, so speculation stays valid across an
// implementation switch (the livepatch drain keeps writer exclusion
// continuous, and the wrapper seq is bumped inside it).

// OptRead runs fn as a speculative read section of the switchable lock,
// falling back to RLock/RUnlock (on the current implementation) after
// the retry budget or while the tier is disengaged.
func (s *SwitchableRWLock) OptRead(t *task.T, fn func()) {
	s.occ.optRead(t, fn, func() { s.RLock(t); fn(); s.RUnlock(t) })
}

// OCCSetMode implements OCCCapable.
func (s *SwitchableRWLock) OCCSetMode(m OCCMode) { s.occ.OCCSetMode(m) }

// OCCGetMode implements OCCCapable.
func (s *SwitchableRWLock) OCCGetMode() OCCMode { return s.occ.OCCGetMode() }

// OCCPromote implements OCCCapable.
func (s *SwitchableRWLock) OCCPromote(on bool) bool { return s.occ.OCCPromote(on) }

// OCCStats implements OCCCapable.
func (s *SwitchableRWLock) OCCStats() OCCStats { return s.occ.OCCStats() }

var (
	_ OCCCapable = (*RWSem)(nil)
	_ OCCCapable = (*SwitchableRWLock)(nil)
)
