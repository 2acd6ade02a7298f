package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/profile"
	"concord/internal/task"
)

// flightFixture builds a framework with telemetry, continuous profiling,
// and a flight recorder, attaches the map-lookup policy to one lock, and
// returns everything a trip test needs.
func flightFixture(t *testing.T, cfg SupervisorConfig) (*Framework, *FlightRecorder, *locks.ShflLock, *Attachment) {
	t.Helper()
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	f.SetSupervisorConfig(cfg)
	f.EnableTelemetry(obs.NewTelemetry())
	cp := profile.NewContinuous(profile.ContinuousConfig{SampleRate: 1})
	cp.SetEnabled(true)
	f.EnableContinuousProfiling(cp)
	fr, err := f.EnableFlightRecorder(FlightRecorderConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l := locks.NewShflLock("flock")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	mapLookupPolicy(t, f, "fpol")
	att, err := f.Attach("flock", "fpol")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()
	return f, fr, l, att
}

// TestFlightRecorderCapturesOnQuarantine: a forced quarantine trip must
// deterministically produce exactly one schema-valid bundle carrying the
// trace ring, profiling windows, policy disassembly, analysis report,
// and the injected fault site's fire count.
func TestFlightRecorderCapturesOnQuarantine(t *testing.T) {
	f, fr, l, att := flightFixture(t, SupervisorConfig{
		MaxRetries:     0, // first fault quarantines
		InitialBackoff: time.Millisecond,
	})

	// One clean acquisition first: the capture goroutine snapshots the
	// trace ring and profiling windows as soon as the policy trips, which
	// can be before the tripping event's own telemetry hooks have run.
	tk := task.New(f.Topology())
	l.Lock(tk)
	l.Unlock(tk)
	faultinject.PolicyHelper.Arm(faultinject.Config{MaxFires: 1})
	pumpUntil(t, l, tk, "quarantine", func() bool { return att.Quarantined() })
	fr.Wait()
	if err := fr.Err(); err != nil {
		t.Fatalf("capture error: %v", err)
	}

	files := fr.Bundles()
	if len(files) != 1 {
		t.Fatalf("bundles = %v, want exactly 1", files)
	}
	base := filepath.Base(files[0])
	if !strings.Contains(base, "flock") || !strings.Contains(base, "quarantine") {
		t.Errorf("bundle name %q missing lock/trigger", base)
	}

	b, err := ReadFlightBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != FlightBundleSchema {
		t.Errorf("schema = %q", b.Schema)
	}
	if b.Seq != 1 {
		t.Errorf("seq = %d, want 1", b.Seq)
	}
	if b.CapturedNS == 0 {
		t.Error("captured_ns unset")
	}
	if b.Lock != "flock" || b.Policy != "fpol" {
		t.Errorf("lock/policy = %q/%q", b.Lock, b.Policy)
	}
	if b.Trigger != "quarantine" || !b.Quarantined {
		t.Errorf("trigger = %q quarantined=%v", b.Trigger, b.Quarantined)
	}
	if b.Breaker != BreakerQuarantined.String() {
		t.Errorf("breaker = %q", b.Breaker)
	}
	if b.Error == "" {
		t.Error("error string empty")
	}
	if b.Faults < 1 {
		t.Errorf("faults = %d", b.Faults)
	}
	if len(b.Trace) == 0 {
		t.Error("trace ring snapshot empty")
	}
	if len(b.Perfetto) == 0 {
		t.Error("perfetto timeline missing")
	} else {
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b.Perfetto, &tr); err != nil {
			t.Errorf("perfetto not valid JSON: %v", err)
		} else if len(tr.TraceEvents) == 0 {
			t.Error("perfetto timeline has no events")
		}
	}
	if len(b.Windows) == 0 {
		t.Error("no profiling windows captured")
	} else {
		found := false
		for _, w := range b.Windows {
			if w.Lock == "flock" && w.Acqs > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("no window with acquisitions for flock: %+v", b.Windows)
		}
	}
	if len(b.Policies) == 0 {
		t.Error("no policy rows captured")
	}
	if d, ok := b.Disasm[policy.KindLockAcquired.String()]; !ok || !strings.Contains(d, "call") {
		t.Errorf("disassembly missing or wrong: %q", d)
	}
	if rep, ok := b.Analysis[policy.KindLockAcquired.String()]; !ok || rep == nil || rep.CostBound <= 0 {
		t.Errorf("analysis report missing: %+v", rep)
	}
	if n := b.FaultSites["policy.helper"]; n < 1 {
		t.Errorf("fault site fires = %d, want >= 1 (sites: %v)", n, b.FaultSites)
	}

	// No stray tmp files: the write is atomic.
	ents, err := os.ReadDir(fr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover tmp file %s", e.Name())
		}
	}

	// ListFlightBundles agrees with the recorder's own accounting.
	listed, err := ListFlightBundles(fr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0] != files[0] {
		t.Errorf("ListFlightBundles = %v, want %v", listed, files)
	}
}

// TestFlightRecorderBreakerOpenTrigger: a transient fault with retry
// budget left must classify as breaker-open, not quarantine.
func TestFlightRecorderBreakerOpenTrigger(t *testing.T) {
	f, fr, l, att := flightFixture(t, SupervisorConfig{
		MaxRetries:     3,
		InitialBackoff: 5 * time.Millisecond,
		Probation:      50 * time.Millisecond,
	})

	faultinject.PolicyHelper.Arm(faultinject.Config{MaxFires: 1})
	tk := task.New(f.Topology())
	pumpUntil(t, l, tk, "fault", func() bool { return att.Faults() > 0 })
	fr.Wait()

	files := fr.Bundles()
	if len(files) == 0 {
		t.Fatal("no bundle captured")
	}
	b, err := ReadFlightBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "breaker-open" {
		t.Errorf("trigger = %q, want breaker-open", b.Trigger)
	}
	if b.Quarantined {
		t.Error("transient trip marked quarantined")
	}
	if b.Breaker != BreakerOpen.String() {
		t.Errorf("breaker = %q", b.Breaker)
	}
	_ = f
}

// TestFlightRecorderSafetyTripTrigger routes a runtime safety trip
// through the framework and expects the safety-trip classification.
func TestFlightRecorderSafetyTripTrigger(t *testing.T) {
	f, fr, _, att := flightFixture(t, SupervisorConfig{
		MaxRetries:     0,
		InitialBackoff: time.Millisecond,
	})

	f.handleSafetyTrip("flock", "waiter starvation detected")
	pollUntil(t, "quarantine", func() bool { return att.Quarantined() })
	fr.Wait()

	files := fr.Bundles()
	if len(files) != 1 {
		t.Fatalf("bundles = %v, want 1", files)
	}
	b, err := ReadFlightBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "safety-trip" {
		t.Errorf("trigger = %q, want safety-trip", b.Trigger)
	}
	if !strings.Contains(b.Error, "waiter starvation") {
		t.Errorf("error = %q, want safety message", b.Error)
	}
}

// pollUntil spins on cond without driving lock traffic (for trips
// injected directly rather than via hooks).
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFlightRecorderPrunesOldBundles: MaxBundles caps disk usage, oldest
// bundles removed first.
func TestFlightRecorderPrunesOldBundles(t *testing.T) {
	f := newFramework()
	fr, err := f.EnableFlightRecorder(FlightRecorderConfig{
		Dir:        t.TempDir(),
		MaxBundles: 2,
		Clock:      func() int64 { return 42 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fr.capture(tripSnapshot{lock: "l", policyName: "p", err: errors.New("boom")})
	}
	fr.Wait()
	files := fr.Bundles()
	if len(files) != 2 {
		t.Fatalf("kept %d bundles, want 2: %v", len(files), files)
	}
	listed, err := ListFlightBundles(fr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("on disk: %v, want 2 files", listed)
	}
	// The survivors are the two newest sequences.
	last, err := ReadFlightBundle(listed[len(listed)-1])
	if err != nil {
		t.Fatal(err)
	}
	if last.Seq != 5 {
		t.Errorf("newest seq = %d, want 5", last.Seq)
	}
	if last.CapturedNS != 42 {
		t.Errorf("clock override ignored: %d", last.CapturedNS)
	}
}

// TestFlightRecorderRejectsBadInput covers config validation and bundle
// schema checking.
func TestFlightRecorderRejectsBadInput(t *testing.T) {
	f := newFramework()
	if _, err := f.EnableFlightRecorder(FlightRecorderConfig{}); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "flight-000001-x-y.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightBundle(bad); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadFlightBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestFlightRecorderCaptureSchedFuzz: the schedule fuzzer's trip class
// files a bundle under the "schedfuzz" trigger carrying the replayable
// schedule path and the goroutine dump alongside the usual diagnostic
// state.
func TestFlightRecorderCaptureSchedFuzz(t *testing.T) {
	_, fr, _, _ := flightFixture(t, SupervisorConfig{
		MaxRetries:     5,
		InitialBackoff: time.Millisecond,
	})

	fr.CaptureSchedFuzz("lock-torture", errors.New("ops conserved badly"),
		"/tmp/x.schedule.json", "goroutine 1 [running]: ...")
	fr.Wait()
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	files := fr.Bundles()
	if len(files) != 1 {
		t.Fatalf("bundles = %d, want 1", len(files))
	}
	b, err := ReadFlightBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "schedfuzz" {
		t.Errorf("trigger %q, want schedfuzz", b.Trigger)
	}
	if b.Lock != "lock-torture" || b.Policy != "schedfuzz" {
		t.Errorf("identity lock=%q policy=%q", b.Lock, b.Policy)
	}
	if b.SchedulePath != "/tmp/x.schedule.json" {
		t.Errorf("schedule path %q", b.SchedulePath)
	}
	if !strings.Contains(b.Goroutines, "goroutine 1") {
		t.Errorf("goroutine dump lost: %q", b.Goroutines)
	}
	if !strings.Contains(b.Error, "ops conserved badly") ||
		!strings.Contains(b.Error, ErrSchedFuzz.Error()) {
		t.Errorf("error %q missing wrapped cause", b.Error)
	}
}
