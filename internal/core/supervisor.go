package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/obs"
)

// Supervision errors. ErrHookLatency and ErrHookPanic classify trips so
// telemetry can count watchdog and containment events separately from
// plain VM faults.
var (
	// ErrHookLatency is the latency watchdog's trip error: a policy hook
	// invocation exceeded SupervisorConfig.LatencyBudget.
	ErrHookLatency = errors.New("concord: policy hook exceeded latency budget")
	// ErrHookPanic wraps a panic recovered inside a policy hook.
	ErrHookPanic = errors.New("concord: policy hook panicked")
	// ErrDrainTimeout is the trip error when a (re)attach patch failed
	// to drain within SupervisorConfig.DrainTimeout and was rolled back.
	ErrDrainTimeout = errors.New("concord: livepatch drain deadline exceeded")
	// ErrTransitionAborted is returned by Attach when the livepatch
	// transition was aborted (fault injection: livepatch.abort).
	ErrTransitionAborted = errors.New("concord: policy attach transition aborted")
	// ErrSafetyTrip wraps a lock runtime safety-check quarantine routed
	// through the supervisor.
	ErrSafetyTrip = errors.New("concord: lock safety check tripped")
)

// BreakerState is the per-attachment circuit breaker state.
type BreakerState int32

// Breaker states. Closed is healthy (hooks installed); Open means the
// policy is detached and a re-attach is scheduled after backoff;
// HalfOpen means the policy was re-attached and is on probation;
// Quarantined is terminal — the retry budget (or safety-trip limit) is
// exhausted and the lock stays on default behaviour.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
	BreakerQuarantined
)

// String implements fmt.Stringer (health rows, `concordctl health`).
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerQuarantined:
		return "quarantined"
	}
	return "?"
}

// SupervisorConfig tunes the per-attachment policy supervisor. The zero
// value reproduces the original one-shot safety valve: the first
// runtime fault permanently detaches the policy (quarantine, no
// retries).
type SupervisorConfig struct {
	// MaxRetries is how many re-attach attempts follow a trip before the
	// policy is quarantined. 0 quarantines on the first fault.
	MaxRetries int
	// InitialBackoff is the delay before the first re-attach; it doubles
	// per retry (exponential backoff). Defaults to 10ms when retrying.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Defaults to 1s.
	MaxBackoff time.Duration
	// Probation is how long a re-attached policy must run fault-free in
	// half-open state before the breaker closes (and the retry budget
	// resets). Defaults to 100ms.
	Probation time.Duration
	// DrainTimeout bounds the livepatch epoch drain of every (re)attach
	// this supervisor performs: if the displaced hook table has not
	// quiesced in time, the patch is rolled back and the trip counts
	// against the retry budget. 0 waits forever (the original behaviour).
	DrainTimeout time.Duration
	// LatencyBudget arms the latency watchdog: a hook invocation running
	// longer than this is treated as a policy fault. 0 disables it.
	LatencyBudget time.Duration
	// SafetyTripLimit, when > 0, quarantines the policy outright once
	// this many lock runtime safety checks have tripped, regardless of
	// remaining retries (the starvation/queue-conservation escalation).
	SafetyTripLimit int
	// HookBudget is the admission budget: Attach rejects a policy whose
	// static worst-case cost bound exceeds it. 0 applies
	// DefaultHookBudget; negative disables admission control.
	HookBudget time.Duration
	// WatchdogScale, when > 0 and LatencyBudget is unset, arms the
	// latency watchdog at WatchdogScale × the attached policy's static
	// cost bound (never below derivedWatchdogFloor). An explicit
	// LatencyBudget always wins — the runtime override.
	WatchdogScale int
	// Interference selects how Attach treats statically-detected
	// cross-policy map conflicts (two policies on different locks
	// touching the same map). The zero value warns: conflicts are
	// recorded on the attachment but the attach proceeds.
	Interference InterferenceMode
}

// InterferenceMode is the admission stance on cross-policy map
// interference (see internal/policy/analysis.Interference).
type InterferenceMode int

const (
	// InterferenceWarn (default) records conflicts on the attachment
	// and lets the attach proceed.
	InterferenceWarn InterferenceMode = iota
	// InterferenceOff skips the analysis entirely.
	InterferenceOff
	// InterferenceReject refuses attaches whose policy has a blocking
	// (write-write) conflict with a policy attached to another lock.
	InterferenceReject
)

// String implements fmt.Stringer.
func (m InterferenceMode) String() string {
	switch m {
	case InterferenceWarn:
		return "warn"
	case InterferenceOff:
		return "off"
	case InterferenceReject:
		return "reject"
	}
	return "?"
}

// DefaultHookBudget is the admission budget applied when
// SupervisorConfig.HookBudget is zero: generous against every shipped
// policy (they bound in the hundreds of nanoseconds) while rejecting
// pathological programs before they ever run on the lock's hot path.
const DefaultHookBudget = 2 * time.Microsecond

// derivedWatchdogFloor keeps derived watchdog budgets out of scheduler
// noise: the static bound models native-compiled straight-line cost, and
// a few hundred nanoseconds of slack would trip on any preemption.
const derivedWatchdogFloor = 100 * time.Microsecond

func (c SupervisorConfig) hookBudget() time.Duration {
	if c.HookBudget < 0 {
		return 0 // admission disabled
	}
	if c.HookBudget > 0 {
		return c.HookBudget
	}
	return DefaultHookBudget
}

func (c SupervisorConfig) initialBackoff() time.Duration {
	if c.InitialBackoff > 0 {
		return c.InitialBackoff
	}
	return 10 * time.Millisecond
}

func (c SupervisorConfig) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return time.Second
}

func (c SupervisorConfig) probation() time.Duration {
	if c.Probation > 0 {
		return c.Probation
	}
	return 100 * time.Millisecond
}

// backoffFor returns the delay before re-attach attempt retry (0-based),
// exponential with cap.
func (c SupervisorConfig) backoffFor(retry int) time.Duration {
	d := c.initialBackoff()
	max := c.maxBackoff()
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// supervisor runs the circuit breaker for one attachment. One
// supervisor backs one Attach call; re-attach attempts create fresh
// adapters but keep the supervisor (and its aggregate counters).
//
// Lock ordering: sup.mu may be taken before f.mu, never the reverse.
// Framework methods therefore never call supervisor methods while
// holding f.mu. Replace is called without waiting (never Patch.Wait)
// inside trip paths: a trip can originate inside a hook invocation
// whose pin is exactly what a Wait would block on.
type supervisor struct {
	f          *Framework
	st         *lockState
	att        *Attachment
	lockName   string
	policyName string
	cfg        SupervisorConfig
	// costBound is the policy's static worst-case cost bound (ns) from
	// load-time analysis, written once in Attach before the supervisor is
	// shared; the derived latency watchdog budget scales from it.
	costBound int64

	// faults aggregates policy faults across all adapters (attach
	// attempts) of this attachment.
	faults atomic.Int64

	mu          sync.Mutex
	state       BreakerState
	retries     int
	safetyTrips int
	canceled    bool
	lastErr     error
	patch       *livepatch.Patch
	timer       *time.Timer
	// ad is the adapter of the current attempt. Written under both
	// sup.mu and f.mu; framework methods read it under f.mu.
	ad *adapter
}

// State returns the breaker state.
func (s *supervisor) State() BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Retries returns how many re-attach attempts have been made.
func (s *supervisor) Retries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

// SafetyTrips returns how many lock safety checks have tripped on this
// attachment.
func (s *supervisor) SafetyTrips() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.safetyTrips
}

// Err returns the most recent trip error, if any.
func (s *supervisor) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *supervisor) setPatch(p *livepatch.Patch) {
	s.mu.Lock()
	s.patch = p
	s.mu.Unlock()
}

// waitPatch blocks on the current attempt's patch consistency point.
func (s *supervisor) waitPatch() {
	s.mu.Lock()
	p := s.patch
	s.mu.Unlock()
	if p != nil {
		p.Wait()
	}
}

// cancel permanently stops supervision (the attachment was detached or
// superseded). Idempotent.
func (s *supervisor) cancel() {
	s.mu.Lock()
	s.canceled = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()
}

// trip is the fault entry point (adapter faultFn). It detaches the
// policy to fallback hooks exactly once per closed/half-open period —
// concurrent faulting hooks collapse to one detach + one fallback swap —
// then either quarantines or schedules a backed-off re-attach.
func (s *supervisor) trip(err error) { s.tripWith(err, false) }

func (s *supervisor) tripWith(err error, forceQuarantine bool) {
	s.mu.Lock()
	if s.canceled || (s.state != BreakerClosed && s.state != BreakerHalfOpen) {
		s.mu.Unlock()
		return
	}
	s.lastErr = err
	quarantine := forceQuarantine || s.retries >= s.cfg.MaxRetries

	f := s.f
	f.mu.Lock()
	current := s.st.attached == s.att
	var fallback *locks.Hooks
	var tel *obs.Telemetry
	var flight *FlightRecorder
	if current {
		if quarantine {
			s.st.attached = nil
		}
		fallback = f.effectiveHooks(s.st, nil, nil)
		tel = f.tel
		flight = f.flight
	}
	f.mu.Unlock()
	if !current {
		// Superseded by a newer Attach (or detached); stand down.
		s.canceled = true
		s.mu.Unlock()
		return
	}

	if quarantine {
		s.state = BreakerQuarantined
	} else {
		s.state = BreakerOpen
	}
	s.st.hooked.HookSlot().Replace("fault-detach:"+s.policyName, fallback)
	if tel != nil {
		tel.SafetyFallbacks.Inc()
		if errors.Is(err, ErrHookLatency) {
			tel.WatchdogTrips.Inc()
		}
		if quarantine {
			tel.Quarantines.Inc()
		} else {
			tel.BreakerOpens.Inc()
		}
	}
	if flight != nil {
		// Copy the trip state by value: the capture goroutine must not
		// read supervisor fields after s.mu is released, and must not
		// take f.mu while we hold s.mu.
		flight.capture(tripSnapshot{
			lock:        s.lockName,
			policyName:  s.policyName,
			err:         err,
			quarantine:  quarantine,
			state:       s.state,
			retries:     s.retries,
			safetyTrips: s.safetyTrips,
			faults:      s.faults.Load(),
			costBound:   s.costBound,
		})
	}
	if !quarantine {
		s.timer = time.AfterFunc(s.cfg.backoffFor(s.retries), s.reattach)
	}
	s.mu.Unlock()
}

// tripSafety routes a lock runtime safety-check quarantine into the
// breaker, escalating to hard quarantine past the configured limit.
func (s *supervisor) tripSafety(msg string) {
	s.mu.Lock()
	s.safetyTrips++
	force := s.cfg.SafetyTripLimit > 0 && s.safetyTrips >= s.cfg.SafetyTripLimit
	s.mu.Unlock()
	s.tripWith(&safetyTripError{msg: msg}, force)
}

// safetyTripError wraps a disablePolicy message as an ErrSafetyTrip.
type safetyTripError struct{ msg string }

func (e *safetyTripError) Error() string { return ErrSafetyTrip.Error() + ": " + e.msg }
func (e *safetyTripError) Unwrap() error { return ErrSafetyTrip }

// reattach fires after the backoff: install a fresh adapter and move to
// half-open probation.
func (s *supervisor) reattach() {
	s.mu.Lock()
	if s.canceled || s.state != BreakerOpen {
		s.mu.Unlock()
		return
	}
	s.retries++

	f := s.f
	f.mu.Lock()
	if s.st.attached != s.att {
		f.mu.Unlock()
		s.canceled = true
		s.mu.Unlock()
		return
	}
	p := f.policies[s.policyName]
	ad := newAdapter(f, s)
	s.ad = ad
	hooks := f.effectiveHooks(s.st, p, ad)
	tel := f.tel
	f.mu.Unlock()

	// Re-enable hook dispatch in case a safety check disabled it.
	if r, ok := s.st.hooked.(interface{ ResetSafety() }); ok {
		r.ResetSafety()
	}
	patch := s.st.hooked.HookSlot().Replace(s.policyName+"(retry)", hooks)
	s.patch = patch
	s.state = BreakerHalfOpen
	if tel != nil {
		tel.Reattaches.Inc()
	}
	s.timer = time.AfterFunc(s.cfg.probation(), s.probationEnd)
	s.mu.Unlock()

	s.watchDrain(patch, tel)
}

// watchDrain enforces DrainTimeout on a (re)attach patch: if the
// displaced hooks do not quiesce in time, roll back and trip.
func (s *supervisor) watchDrain(patch *livepatch.Patch, tel *obs.Telemetry) {
	if s.cfg.DrainTimeout <= 0 {
		return
	}
	go func() {
		if patch.WaitTimeout(s.cfg.DrainTimeout) {
			return
		}
		if tel != nil {
			tel.DrainTimeouts.Inc()
		}
		patch.Rollback()
		s.tripWith(ErrDrainTimeout, false)
	}()
}

// probationEnd closes the breaker after a fault-free half-open window
// and restores the retry budget (transient faults heal completely).
func (s *supervisor) probationEnd() {
	s.mu.Lock()
	if !s.canceled && s.state == BreakerHalfOpen {
		s.state = BreakerClosed
		s.retries = 0
		if tel := s.f.Telemetry(); tel != nil {
			tel.BreakerCloses.Inc()
		}
	}
	s.mu.Unlock()
}

// newAdapter builds the hook adapter for one attach attempt, wired to
// the supervisor: every fault bumps the aggregate counters, and the
// first fault of the attempt trips the breaker.
// latencyBudget resolves the watchdog budget for this attachment: the
// explicit LatencyBudget when configured, otherwise WatchdogScale × the
// static cost bound (floored at derivedWatchdogFloor), otherwise 0.
func (s *supervisor) latencyBudget() time.Duration {
	if s.cfg.LatencyBudget > 0 {
		return s.cfg.LatencyBudget
	}
	if s.cfg.WatchdogScale > 0 && s.costBound > 0 {
		d := time.Duration(s.costBound) * time.Duration(s.cfg.WatchdogScale)
		if d < derivedWatchdogFloor {
			d = derivedWatchdogFloor
		}
		return d
	}
	return 0
}

func newAdapter(f *Framework, sup *supervisor) *adapter {
	ad := &adapter{
		policyName:    sup.policyName,
		latencyBudget: sup.latencyBudget(),
	}
	ad.countFault = func() {
		sup.faults.Add(1)
		if tel := f.Telemetry(); tel != nil {
			tel.PolicyFaults.Inc()
		}
	}
	ad.faultFn = sup.trip
	// newAdapter runs with f.mu held (Attach and supervised reattach),
	// so the lock_stats_read closure can be resolved directly.
	ad.setLockStats(f.statReaderLocked(sup.st))
	// occ_set routes to the lock's optimistic tier when it has one.
	// OCCPromote honours the mode set on the lock itself (OCCSetMode), so
	// a forced mode keeps binding across supervised reattaches, which
	// rebuild the adapter.
	if occ, ok := sup.st.lock.(locks.OCCCapable); ok {
		ad.setOCCSet(func(on uint64) uint64 {
			if occ.OCCPromote(on != 0) {
				return 1
			}
			return 0
		})
	}
	return ad
}

// handleSafetyTrip is the framework's lock safety observer: it counts
// the trip and routes it to the supervisor of the affected lock's
// attachment, if any.
func (f *Framework) handleSafetyTrip(lockName, msg string) {
	f.mu.Lock()
	tel := f.tel
	var sup *supervisor
	if st := f.locks[lockName]; st != nil && st.attached != nil {
		sup = st.sup
	}
	f.mu.Unlock()
	if tel != nil {
		tel.SafetyTrips.Inc()
	}
	if sup != nil {
		sup.tripSafety(msg)
	}
}

// HealthRow is one lock's robustness status: breaker state, fault and
// retry counts, and the last trip reason — the unit of the /health
// endpoint and `concordctl health`.
type HealthRow struct {
	Lock        string `json:"lock"`
	Policy      string `json:"policy,omitempty"`
	Breaker     string `json:"breaker"`
	Faults      int64  `json:"faults"`
	Retries     int    `json:"retries"`
	SafetyTrips int    `json:"safety_trips"`
	LastError   string `json:"last_error,omitempty"`
}

// HealthRows reports the supervision status of every registered lock,
// sorted by name. Locks that never had a policy attached report an
// empty breaker state.
func (f *Framework) HealthRows() []HealthRow {
	f.mu.Lock()
	type entry struct {
		name   string
		policy string
		sup    *supervisor
	}
	entries := make([]entry, 0, len(f.locks))
	for name, st := range f.locks {
		e := entry{name: name, sup: st.sup}
		if st.attached != nil {
			e.policy = st.attached.Policy
		} else if st.sup != nil {
			e.policy = st.sup.policyName
		}
		entries = append(entries, e)
	}
	f.mu.Unlock()

	rows := make([]HealthRow, 0, len(entries))
	for _, e := range entries {
		row := HealthRow{Lock: e.name, Policy: e.policy}
		if s := e.sup; s != nil {
			// Supervisor state is read after releasing f.mu (lock order:
			// sup.mu before f.mu, never inverted).
			s.mu.Lock()
			row.Breaker = s.state.String()
			row.Retries = s.retries
			row.SafetyTrips = s.safetyTrips
			if s.lastErr != nil {
				row.LastError = s.lastErr.Error()
			}
			s.mu.Unlock()
			row.Faults = s.faults.Load()
		}
		rows = append(rows, row)
	}
	sortHealthRows(rows)
	return rows
}

func sortHealthRows(rows []HealthRow) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].Lock < rows[j-1].Lock; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// breakerByLock returns lock name -> breaker state string for every
// supervised lock (used to decorate telemetry LockRows).
func (f *Framework) breakerByLock() map[string]string {
	f.mu.Lock()
	sups := make(map[string]*supervisor, len(f.locks))
	for name, st := range f.locks {
		if st.sup != nil {
			sups[name] = st.sup
		}
	}
	f.mu.Unlock()
	out := make(map[string]string, len(sups))
	for name, s := range sups {
		out[name] = s.State().String()
	}
	return out
}
