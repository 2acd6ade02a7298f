package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/task"
)

// mapLookupPolicy loads a valid KindLockAcquired program that performs a
// map lookup on every acquisition — a policy that is healthy on its own
// but exercises the helper path every hook invocation, so the
// fault-injection sites (policy.helper, policy.latency, core.hook_panic)
// all have something to bite. Returns the framework's copy of the
// program, the one that runs, so tests can corrupt it (corruptMaps) for
// the persistent-fault shape.
func mapLookupPolicy(t testing.TB, f *Framework, name string) *policy.Program {
	t.Helper()
	m := policy.NewArrayMap("m_"+name, 8, 1)
	prog := policy.NewBuilder(name, policy.KindLockAcquired).
		StoreStackImm(policy.OpStW, -4, 0).
		LoadMapPtr(policy.R1, m).
		MovReg(policy.R2, policy.RFP).
		AddImm(policy.R2, -4).
		Call(policy.HelperMapLookup).
		JmpImm(policy.OpJneImm, policy.R0, 0, "ok").
		ReturnImm(0).
		Label("ok").
		ReturnImm(1).
		MustProgram()
	pol, err := f.LoadPolicy(name, prog)
	if err != nil {
		t.Fatal(err)
	}
	return pol.Programs[policy.KindLockAcquired]
}

// corruptMaps empties a loaded program's map table, standing in for a
// stray write to the loaded image after verification: its map load then
// faults on every invocation, on either tier.
func corruptMaps(p *policy.Program) { p.Maps = p.Maps[:0] }

// pumpUntil drives lock traffic until cond holds (the supervisor's
// timers need ongoing hook invocations to observe re-injected faults).
func pumpUntil(t *testing.T, l *locks.ShflLock, tk *task.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		l.Lock(tk)
		l.Unlock(tk)
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBreakerTransientFaultHeals is the heart of the self-healing story:
// one injected fault opens the breaker, the backed-off re-attach goes on
// probation, and a fault-free probation closes the breaker with the
// retry budget restored — the policy ends up installed again.
func TestBreakerTransientFaultHeals(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	f.SetSupervisorConfig(SupervisorConfig{
		MaxRetries:     3,
		InitialBackoff: 2 * time.Millisecond,
		Probation:      10 * time.Millisecond,
	})
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	mapLookupPolicy(t, f, "pol")
	att, err := f.Attach("l", "pol")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()
	if att.Breaker() != BreakerClosed {
		t.Fatalf("initial breaker = %v", att.Breaker())
	}

	faultinject.PolicyHelper.Arm(faultinject.Config{MaxFires: 1})
	tk := task.New(f.Topology())
	pumpUntil(t, l, tk, "fault", func() bool { return att.Faults() > 0 })
	if att.Err() == nil {
		t.Fatal("no trip error recorded")
	}

	// Backoff (2ms) then probation (10ms) with the site exhausted: the
	// breaker must close again and the policy must be reinstalled.
	pumpUntil(t, l, tk, "breaker to close", func() bool { return att.Breaker() == BreakerClosed })
	if att.Retries() != 0 {
		t.Errorf("retry budget not restored after probation: %d", att.Retries())
	}
	if att.Quarantined() {
		t.Error("transient fault quarantined the policy")
	}
	h := l.HookSlot().Peek()
	if h == nil || h.Name != "pol" {
		t.Errorf("policy not reinstalled after heal: %+v", h)
	}
	if att.Faults() != 1 {
		t.Errorf("faults = %d, want exactly the 1 injected", att.Faults())
	}
}

// TestBreakerQuarantinePersistentFault: a policy that faults on every
// invocation burns through the retry budget and is quarantined — the
// lock stays on default behaviour, and health reporting says so.
func TestBreakerQuarantinePersistentFault(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	f.SetSupervisorConfig(SupervisorConfig{
		MaxRetries:     2,
		InitialBackoff: time.Millisecond,
		Probation:      time.Second, // long: re-attached policy must fault out, not heal
	})
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	prog := mapLookupPolicy(t, f, "faulty")
	// Corrupt the loaded program post-verification: its map load faults
	// on every invocation (the persistent-fault shape).
	corruptMaps(prog)
	att, err := f.Attach("l", "faulty")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	tk := task.New(f.Topology())
	pumpUntil(t, l, tk, "quarantine", att.Quarantined)
	if att.Retries() != 2 {
		t.Errorf("retries = %d, want 2 (MaxRetries)", att.Retries())
	}
	if l.HookSlot().Peek() != nil {
		t.Error("quarantined policy left hooks installed")
	}
	for _, info := range f.Locks() {
		if info.Policy != "" {
			t.Errorf("quarantined lock still reports policy %q", info.Policy)
		}
	}

	rows := f.HealthRows()
	if len(rows) != 1 {
		t.Fatalf("HealthRows = %+v", rows)
	}
	r := rows[0]
	if r.Breaker != "quarantined" || r.Policy != "faulty" || r.Faults == 0 || r.LastError == "" {
		t.Errorf("health row = %+v", r)
	}
}

// TestConcurrentFaultsSingleFallback: many hooks faulting at once on one
// attachment collapse to exactly one detach and one fallback hook swap
// (the idempotent safety valve).
func TestConcurrentFaultsSingleFallback(t *testing.T) {
	f := newFramework() // zero SupervisorConfig: one-shot quarantine
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	corruptMaps(mapLookupPolicy(t, f, "faulty"))
	att, err := f.Attach("l", "faulty")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(f.Topology())
			for i := 0; i < 50; i++ {
				l.Lock(tk)
				l.Unlock(tk)
			}
		}()
	}
	wg.Wait()

	if !att.Quarantined() {
		t.Fatal("persistent fault not quarantined")
	}
	if got := tel.SafetyFallbacks.Value(); got != 1 {
		t.Errorf("SafetyFallbacks = %d, want exactly 1 fallback swap", got)
	}
	if got := tel.Quarantines.Value(); got != 1 {
		t.Errorf("Quarantines = %d, want 1", got)
	}
	if tel.PolicyFaults.Value() == 0 {
		t.Error("no policy faults counted")
	}
}

// TestSafetyTripEscalation: a lock runtime safety-check trip routed
// through the observer escalates straight to quarantine once the
// configured limit is reached, regardless of remaining retry budget.
func TestSafetyTripEscalation(t *testing.T) {
	f := newFramework()
	f.SetSupervisorConfig(SupervisorConfig{MaxRetries: 5, SafetyTripLimit: 1})
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadNative("numa", locks.NUMAHooks()); err != nil {
		t.Fatal(err)
	}
	att, err := f.Attach("l", "numa")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	f.handleSafetyTrip("l", "queue conservation violated")
	if !att.Quarantined() {
		t.Fatalf("safety trip past limit did not quarantine (breaker %v)", att.Breaker())
	}
	if !errors.Is(att.Err(), ErrSafetyTrip) {
		t.Errorf("Err = %v, want ErrSafetyTrip", att.Err())
	}
	if rows := f.HealthRows(); len(rows) != 1 || rows[0].SafetyTrips != 1 {
		t.Errorf("health rows = %+v", rows)
	}
}

// TestLatencyWatchdog: an injected slow hook exceeds the latency budget
// and is treated as a policy fault.
func TestLatencyWatchdog(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	f.SetSupervisorConfig(SupervisorConfig{LatencyBudget: time.Millisecond})
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	mapLookupPolicy(t, f, "pol")
	att, err := f.Attach("l", "pol")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	faultinject.PolicyLatency.Arm(faultinject.Config{MaxFires: 1, Delay: 20 * time.Millisecond})
	tk := task.New(f.Topology())
	l.Lock(tk)
	l.Unlock(tk)

	if !errors.Is(att.Err(), ErrHookLatency) {
		t.Fatalf("Err = %v, want ErrHookLatency", att.Err())
	}
	if !att.Quarantined() {
		t.Error("latency trip with zero retries did not quarantine")
	}
	if got := tel.WatchdogTrips.Value(); got != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", got)
	}
}

// TestHookPanicContained: a panicking hook is recovered inside the
// adapter and converted to a policy fault — the lock operation and the
// caller survive.
func TestHookPanicContained(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	mapLookupPolicy(t, f, "pol")
	att, err := f.Attach("l", "pol")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	faultinject.CoreHookPanic.Arm(faultinject.Config{MaxFires: 1})
	tk := task.New(f.Topology())
	l.Lock(tk) // must not panic out of the lock operation
	l.Unlock(tk)

	if att.Faults() == 0 {
		t.Fatal("panic not converted to a fault")
	}
	if !errors.Is(att.Err(), ErrHookPanic) {
		t.Errorf("Err = %v, want ErrHookPanic", att.Err())
	}
}

// TestDrainTimeoutTrips: a stalled livepatch drain (injected phantom
// reader pin) exceeds DrainTimeout; the patch is rolled back and the
// trip counts against the attachment.
func TestDrainTimeoutTrips(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	f.SetSupervisorConfig(SupervisorConfig{DrainTimeout: 5 * time.Millisecond})
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	mapLookupPolicy(t, f, "pol")

	faultinject.LivepatchDrain.Arm(faultinject.Config{MaxFires: 1, Delay: 300 * time.Millisecond})
	att, err := f.Attach("l", "pol")
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !att.Quarantined() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !att.Quarantined() {
		t.Fatal("drain timeout did not trip the breaker")
	}
	if !errors.Is(att.Err(), ErrDrainTimeout) {
		t.Errorf("Err = %v, want ErrDrainTimeout", att.Err())
	}
	if got := tel.DrainTimeouts.Value(); got != 1 {
		t.Errorf("DrainTimeouts = %d, want 1", got)
	}
}

// TestAttachTransitionAbort: the livepatch.abort site makes Attach fail
// cleanly before any state changes; once the site is exhausted the same
// attach succeeds.
func TestAttachTransitionAbort(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	mapLookupPolicy(t, f, "pol")

	faultinject.LivepatchAbort.Arm(faultinject.Config{MaxFires: 1})
	if _, err := f.Attach("l", "pol"); !errors.Is(err, ErrTransitionAborted) {
		t.Fatalf("Attach error = %v, want ErrTransitionAborted", err)
	}
	for _, info := range f.Locks() {
		if info.Policy != "" {
			t.Errorf("aborted attach left policy %q", info.Policy)
		}
	}
	if got := tel.TransitionAborts.Value(); got != 1 {
		t.Errorf("TransitionAborts = %d, want 1", got)
	}

	att, err := f.Attach("l", "pol")
	if err != nil {
		t.Fatalf("attach after abort site exhausted: %v", err)
	}
	att.Wait()
	// Telemetry composes into the table, so check the policy prefix.
	if h := l.HookSlot().Peek(); h == nil || !strings.HasPrefix(h.Name, "pol") {
		t.Errorf("policy not installed after retried attach: %+v", h)
	}
}

// TestHealthRowsUnattached: locks that never had a policy report an
// empty breaker, and rows come back sorted by lock name.
func TestHealthRowsUnattached(t *testing.T) {
	f := newFramework()
	for _, name := range []string{"zeta", "alpha"} {
		if err := f.RegisterLock(locks.NewShflLock(name)); err != nil {
			t.Fatal(err)
		}
	}
	rows := f.HealthRows()
	if len(rows) != 2 || rows[0].Lock != "alpha" || rows[1].Lock != "zeta" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Breaker != "" || r.Policy != "" {
			t.Errorf("unattached row = %+v", r)
		}
	}
}

// TestBreakerStateStrings pins the strings the health surface prints.
func TestBreakerStateStrings(t *testing.T) {
	want := map[BreakerState]string{
		BreakerClosed:      "closed",
		BreakerOpen:        "open",
		BreakerHalfOpen:    "half-open",
		BreakerQuarantined: "quarantined",
		BreakerState(99):   "?",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

// TestBackoffSchedule pins the exponential backoff shape.
func TestBackoffSchedule(t *testing.T) {
	cfg := SupervisorConfig{InitialBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		50 * time.Millisecond, 50 * time.Millisecond,
	}
	for i, w := range want {
		if got := cfg.backoffFor(i); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", i, got, w)
		}
	}
	// Zero config still has sane defaults.
	if got := (SupervisorConfig{}).backoffFor(0); got != 10*time.Millisecond {
		t.Errorf("default backoff = %v", got)
	}
}
