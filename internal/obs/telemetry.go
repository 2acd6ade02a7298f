package obs

import (
	"sort"
	"sync"

	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/profile"
	"concord/internal/schedfuzz/schedstats"
	"concord/internal/syncx/park"
)

// traceRingOrder sizes the telemetry trace ring (2^13 = 8192 records).
const traceRingOrder = 13

// traceSampleMask thins ring recording to 1 event in (mask+1): always
// the first event, then every 8th. Aggregates are never sampled.
const traceSampleMask = 7

// Telemetry bundles one registry with the pre-created cross-layer
// instruments the framework records into, the per-lock hook tables, and
// a trace ring for Perfetto export. Create it with NewTelemetry and hand
// it to Framework.EnableTelemetry (or use the concord.WithTelemetry
// facade option, which does both).
type Telemetry struct {
	Registry *Registry
	Ring     *profile.TraceRing

	// Framework lifecycle instruments (internal/core records these).
	PolicyLoads      *Counter // policies verified and registered
	Attaches         *Counter // policy attach operations
	Detaches         *Counter // policy detach operations
	PolicyFaults     *Counter // runtime policy execution faults
	SafetyFallbacks  *Counter // fault-triggered detaches to default behaviour
	SafetyTrips      *Counter // lock invariant checks that quarantined a policy
	PatchTransitions *Counter // livepatch hook-table replacements
	PoliciesLoaded   *Gauge
	LocksRegistered  *Gauge
	DrainLatency     *Histogram // livepatch epoch drain, ns

	// Supervisor / robustness instruments (internal/core records these).
	BreakerOpens     *Counter // breaker transitions closed/half-open -> open
	Reattaches       *Counter // half-open probation re-attach attempts
	BreakerCloses    *Counter // probations survived; breaker back to closed
	Quarantines      *Counter // policies permanently quarantined
	WatchdogTrips    *Counter // hook latency budget violations
	DrainTimeouts    *Counter // livepatch drains that exceeded their deadline
	TransitionAborts *Counter // attach/switch transitions aborted before commit

	mu        sync.Mutex
	lockStats map[string]*lockMetrics
	lockHooks map[string]*locks.Hooks
}

// lockMetrics is the cached per-lock instrument set behind one hook
// table; all updates are single atomics.
type lockMetrics struct {
	acquisitions *Counter
	contentions  *Counter
	releases     *Counter
	readAcqs     *Counter
	wait         *Histogram
	hold         *Histogram
}

// NewTelemetry builds a registry pre-populated with the cross-layer
// instruments, so every acceptance-relevant metric is visible (at zero)
// from the first scrape.
func NewTelemetry() *Telemetry {
	reg := NewRegistry()
	t := &Telemetry{
		Registry: reg,
		Ring:     profile.NewTraceRing(traceRingOrder),
		PolicyLoads: reg.Counter("concord_policy_loads_total",
			"Policies verified and registered with the framework"),
		Attaches: reg.Counter("concord_attaches_total",
			"Policy attach operations (livepatch installs)"),
		Detaches: reg.Counter("concord_detaches_total",
			"Policy detach operations"),
		PolicyFaults: reg.Counter("concord_policy_faults_total",
			"Runtime policy execution faults"),
		SafetyFallbacks: reg.Counter("concord_safety_fallbacks_total",
			"Fault-triggered detaches falling back to default lock behaviour"),
		SafetyTrips: reg.Counter("concord_safety_trips_total",
			"Lock invariant checks that quarantined an attached policy"),
		PatchTransitions: reg.Counter("concord_livepatch_transitions_total",
			"Livepatch hook-table replacements"),
		PoliciesLoaded: reg.Gauge("concord_policies_loaded",
			"Policies currently loaded"),
		LocksRegistered: reg.Gauge("concord_locks_registered",
			"Locks currently registered"),
		DrainLatency: reg.Histogram("concord_livepatch_drain_ns",
			"Livepatch epoch drain latency: patch publication to full quiescence of the old hooks"),
		BreakerOpens: reg.Counter("concord_breaker_opens_total",
			"Policy circuit breaker transitions to open (fault detach with retry pending)"),
		Reattaches: reg.Counter("concord_reattaches_total",
			"Half-open probation re-attach attempts after breaker backoff"),
		BreakerCloses: reg.Counter("concord_breaker_closes_total",
			"Probations survived: breaker returned to closed"),
		Quarantines: reg.Counter("concord_quarantines_total",
			"Policies permanently quarantined after exhausting retries or safety escalation"),
		WatchdogTrips: reg.Counter("concord_watchdog_trips_total",
			"Hook executions that exceeded the supervisor latency budget"),
		DrainTimeouts: reg.Counter("concord_drain_timeouts_total",
			"Livepatch drains that exceeded their deadline and were rolled back"),
		TransitionAborts: reg.Counter("concord_transition_aborts_total",
			"Attach/switch transitions aborted before commit"),
		lockStats: make(map[string]*lockMetrics),
		lockHooks: make(map[string]*locks.Hooks),
	}
	ring := t.Ring
	reg.AddExternal(func(add func(Sample)) {
		add(Sample{Name: "concord_trace_records_lost_total", Kind: KindCounter,
			Value: float64(ring.Overwritten())})
	})
	reg.AddExternal(func(add func(Sample)) {
		for _, s := range faultinject.Sites() {
			if n := s.Fires(); n != 0 {
				add(Sample{Name: "concord_faults_injected_total", Kind: KindCounter,
					Labels: []string{"site", s.Name()}, Value: float64(n)})
			}
		}
	})
	// Waiter-parking and queue-node-pool counters from the lock hot path.
	// Both layers count only cold events (parks, pool misses), so reading
	// them here costs the hot path nothing.
	reg.AddExternal(func(add func(Sample)) {
		ps := park.Snapshot()
		add(Sample{Name: "concord_park_yields_total", Kind: KindCounter,
			Value: float64(ps.Yields)})
		add(Sample{Name: "concord_park_parks_total", Kind: KindCounter,
			Value: float64(ps.Parks)})
		add(Sample{Name: "concord_park_unparks_total", Kind: KindCounter,
			Value: float64(ps.Unparks)})
		add(Sample{Name: "concord_park_rescues_total", Kind: KindCounter,
			Value: float64(ps.Rescues)})
		add(Sample{Name: "concord_qnode_allocs_total", Kind: KindCounter,
			Value: float64(locks.QnodeAllocs())})
	})
	// Schedule-fuzzer counters live in the schedstats leaf package so
	// the fuzzer (which sits above obs in the import graph) can count
	// without a cycle.
	reg.AddExternal(func(add func(Sample)) {
		ss := schedstats.Snapshot()
		add(Sample{Name: "concord_schedfuzz_decisions_total", Kind: KindCounter,
			Value: float64(ss.Decisions)})
		add(Sample{Name: "concord_schedfuzz_forced_parks_total", Kind: KindCounter,
			Value: float64(ss.ForcedParks)})
		add(Sample{Name: "concord_schedfuzz_failures_total", Kind: KindCounter,
			Value: float64(ss.Failures)})
	})
	return t
}

func (t *Telemetry) metricsFor(lockName string) *lockMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.lockStats[lockName]
	if m == nil {
		reg := t.Registry
		m = &lockMetrics{
			acquisitions: reg.Counter("concord_lock_acquisitions_total",
				"Lock acquisitions", "lock", lockName),
			contentions: reg.Counter("concord_lock_contentions_total",
				"Contended lock acquisitions", "lock", lockName),
			releases: reg.Counter("concord_lock_releases_total",
				"Lock releases", "lock", lockName),
			readAcqs: reg.Counter("concord_lock_read_acquisitions_total",
				"Shared (reader) acquisitions", "lock", lockName),
			wait: reg.Histogram("concord_lock_wait_ns",
				"Time from lock request to acquisition", "lock", lockName),
			hold: reg.Histogram("concord_lock_hold_ns",
				"Time the lock was held", "lock", lockName),
		}
		t.lockStats[lockName] = m
	}
	return m
}

// LockHooks returns the (cached) hook table instrumenting one lock:
// counters plus wait/hold histograms into the registry, and raw events
// into the trace ring. The framework composes it after any user policy
// and profiler, so instrumentation stacks rather than replaces.
//
// The table is deliberately flat and sparse — this is the hot path. It
// leaves OnAcquire nil (so locks skip building that event entirely;
// acquisitions are counted in OnAcquired, which fires exactly once per
// acquisition), it records into the ring only the acquired/release
// events the Perfetto builder renders as slices, and it samples those
// 1-in-(traceSampleMask+1) using the counters as the sample clock. The
// counters and histograms stay exact; only the raw-event timeline is
// thinned, which its best-effort ring contract already allows.
func (t *Telemetry) LockHooks(lockName string) *locks.Hooks {
	t.mu.Lock()
	cached := t.lockHooks[lockName]
	t.mu.Unlock()
	if cached != nil {
		return cached
	}

	m := t.metricsFor(lockName)
	ring := t.Ring
	h := &locks.Hooks{
		Name: "telemetry",
		OnContended: func(ev *locks.Event) {
			m.contentions.Inc()
		},
		OnAcquired: func(ev *locks.Event) {
			n := m.acquisitions.Bump()
			m.wait.Observe(ev.WaitNS)
			if ev.Reader {
				m.readAcqs.Inc()
			}
			if (n-1)&traceSampleMask == 0 {
				ring.Record(traceRecord(profile.TraceAcquired, ev))
			}
		},
		OnRelease: func(ev *locks.Event) {
			n := m.releases.Bump()
			m.hold.Observe(ev.HoldNS)
			if (n-1)&traceSampleMask == 0 {
				ring.Record(traceRecord(profile.TraceRelease, ev))
			}
		},
	}

	t.mu.Lock()
	if prior := t.lockHooks[lockName]; prior != nil {
		h = prior // lost a racing build; keep one canonical table
	} else {
		t.lockHooks[lockName] = h
	}
	t.mu.Unlock()
	return h
}

// traceRecord converts a hook event into a ring record.
func traceRecord(op profile.TraceOp, ev *locks.Event) profile.TraceRecord {
	tr := profile.TraceRecord{
		NowNS: ev.NowNS, LockID: ev.LockID, Op: op,
		WaitNS: ev.WaitNS, HoldNS: ev.HoldNS,
	}
	if ev.Task != nil {
		tr.TaskID = ev.Task.ID()
		tr.CPU = int32(ev.Task.CPU())
	}
	return tr
}

// LockRow is one lock's aggregated telemetry, the unit of the /locks
// endpoint and `concordctl top`.
type LockRow struct {
	Lock    string `json:"lock"`
	Policy  string `json:"policy,omitempty"`
	Breaker string `json:"breaker,omitempty"`
	// Tier is the attached policy's execution tier ("jit", "vm", "mixed",
	// "native"; "vm!" when a SetTier override forces the interpreter), filled
	// by core from the attachment.
	Tier string `json:"tier,omitempty"`
	// CostBoundNS is the attached policy's static worst-case cost bound
	// (max across its programs), filled by core from the analysis report.
	CostBoundNS  int64 `json:"cost_bound_ns,omitempty"`
	Acquisitions int64 `json:"acquisitions"`
	Contentions  int64 `json:"contentions"`
	Releases     int64 `json:"releases"`
	ReadAcqs     int64 `json:"read_acquisitions"`
	WaitTotalNS  int64 `json:"wait_total_ns"`
	WaitMeanNS   int64 `json:"wait_mean_ns"`
	WaitP99NS    int64 `json:"wait_p99_ns"`
	HoldMeanNS   int64 `json:"hold_mean_ns"`
	HoldMaxNS    int64 `json:"hold_max_ns"`
	// Recent* come from the continuous profiler's freshest window (not
	// cumulative like the fields above), filled by core when continuous
	// profiling is enabled; RecentWindowNS is the window length.
	RecentContentionPerMille int64 `json:"recent_contention_per_mille,omitempty"`
	RecentWaitP99NS          int64 `json:"recent_wait_p99_ns,omitempty"`
	RecentWindowNS           int64 `json:"recent_window_ns,omitempty"`
}

// LockRows returns one row per instrumented lock, sorted by total wait
// time (most contended first) — the lockstat ordering `top` prints.
func (t *Telemetry) LockRows() []LockRow {
	t.mu.Lock()
	names := make([]string, 0, len(t.lockStats))
	stats := make([]*lockMetrics, 0, len(t.lockStats))
	for n, m := range t.lockStats {
		names = append(names, n)
		stats = append(stats, m)
	}
	t.mu.Unlock()

	rows := make([]LockRow, len(names))
	for i, m := range stats {
		wait, hold := m.wait.Snapshot(), m.hold.Snapshot()
		rows[i] = LockRow{
			Lock:         names[i],
			Acquisitions: m.acquisitions.Value(),
			Contentions:  m.contentions.Value(),
			Releases:     m.releases.Value(),
			ReadAcqs:     m.readAcqs.Value(),
			WaitTotalNS:  wait.Sum,
			WaitMeanNS:   wait.Mean(),
			WaitP99NS:    wait.Percentile(99),
			HoldMeanNS:   hold.Mean(),
			HoldMaxNS:    hold.Max,
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].WaitTotalNS != rows[j].WaitTotalNS {
			return rows[i].WaitTotalNS > rows[j].WaitTotalNS
		}
		return rows[i].Lock < rows[j].Lock
	})
	return rows
}

// TraceJSON renders the telemetry ring as a Perfetto-loadable timeline.
// lockName resolves lock IDs to names and may be nil.
func (t *Telemetry) TraceJSON(lockName func(uint64) string) ([]byte, error) {
	b := NewTraceBuilder()
	b.AddLockRecords(t.Ring.Snapshot(), lockName)
	return b.JSON()
}
