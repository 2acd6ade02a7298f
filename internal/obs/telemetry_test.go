package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"concord/internal/locks"
	"concord/internal/schedfuzz/schedstats"
	"concord/internal/syncx/park"
	"concord/internal/task"
	"concord/internal/topology"
)

func TestTelemetryLockHooks(t *testing.T) {
	tel := NewTelemetry()
	lock := locks.NewShflLock("hot")
	lock.HookSlot().Replace("telemetry", tel.LockHooks("hot"))

	topo := topology.New(2, 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			for i := 0; i < 200; i++ {
				lock.Lock(tk)
				lock.Unlock(tk)
			}
		}()
	}
	wg.Wait()

	rows := tel.LockRows()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Lock != "hot" || r.Acquisitions != 800 || r.Releases != 800 {
		t.Errorf("row = %+v", r)
	}
	if r.HoldMaxNS <= 0 {
		t.Error("hold histogram never observed")
	}
	// The same events landed in the trace ring.
	if len(tel.Ring.Snapshot()) == 0 {
		t.Error("trace ring empty")
	}
	// And in the Prometheus exposition.
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`concord_lock_acquisitions_total{lock="hot"} 800`,
		`concord_lock_hold_ns_count{lock="hot"} 800`,
		`concord_lock_wait_ns_bucket{lock="hot",le="+Inf"} 800`,
		"concord_trace_records_lost_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestTelemetryLockHooksCached(t *testing.T) {
	tel := NewTelemetry()
	if tel.LockHooks("a") != tel.LockHooks("a") {
		t.Error("LockHooks not cached per lock")
	}
	if tel.LockHooks("a") == tel.LockHooks("b") {
		t.Error("distinct locks share a hook table")
	}
}

func TestTelemetryComposesWithPolicy(t *testing.T) {
	// A behavioural policy composed before telemetry keeps its decisions
	// while telemetry still counts.
	tel := NewTelemetry()
	cmpCalls := 0
	user := &locks.Hooks{
		Name:    "user",
		CmpNode: func(*locks.ShuffleInfo) bool { cmpCalls++; return false },
	}
	h := locks.ComposeHooks(user, tel.LockHooks("l"))
	if h.CmpNode == nil {
		t.Fatal("composition dropped the user's CmpNode")
	}
	h.CmpNode(&locks.ShuffleInfo{})
	if cmpCalls != 1 {
		t.Error("user CmpNode not invoked")
	}
	h.OnAcquired(&locks.Event{WaitNS: 50})
	if got := tel.Registry.Histogram("concord_lock_wait_ns", "", "lock", "l").Snapshot().Count; got != 1 {
		t.Errorf("wait histogram count = %d, want 1", got)
	}
}

func TestLockRowsSortedByWait(t *testing.T) {
	tel := NewTelemetry()
	cold := tel.LockHooks("cold")
	hot := tel.LockHooks("hot")
	for i := 0; i < 10; i++ {
		hot.OnAcquired(&locks.Event{WaitNS: 10_000})
		cold.OnAcquired(&locks.Event{WaitNS: 10})
	}
	rows := tel.LockRows()
	if len(rows) != 2 || rows[0].Lock != "hot" {
		t.Errorf("rows not sorted by total wait: %+v", rows)
	}
}

func TestTelemetryTraceJSON(t *testing.T) {
	tel := NewTelemetry()
	h := tel.LockHooks("l")
	h.OnAcquired(&locks.Event{LockID: 3, NowNS: 1000, WaitNS: 400})
	h.OnRelease(&locks.Event{LockID: 3, NowNS: 2000, HoldNS: 900})
	data, err := tel.TraceJSON(func(uint64) string { return "l" })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "wait l") || !strings.Contains(string(data), "hold l") {
		t.Errorf("trace missing slices: %s", data)
	}
}

func TestTelemetryExportsParkAndPoolCounters(t *testing.T) {
	// Drive one contended blocking acquisition so the park and pool
	// counters are nonzero, then check they surface in a scrape.
	topo := topology.New(2, 4)
	l := locks.NewShflLock("tel-park", locks.WithBlocking(true), locks.WithSpinBudget(0))
	holder := task.New(topo)
	l.Lock(holder)
	base := park.Snapshot()
	// Two waiters: the queue head spins on the lock word, so only a
	// non-head waiter exercises the park path.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(topo)
			l.Lock(tk)
			l.Unlock(tk)
		}()
	}
	// Hold until a waiter has demonstrably parked (not merely queued),
	// so the scrape below is guaranteed a nonzero park/unpark pair.
	for park.Snapshot().Parks == base.Parks {
		runtime.Gosched()
	}
	l.Unlock(holder)
	wg.Wait()

	tel := NewTelemetry()
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"concord_park_yields_total",
		"concord_park_parks_total",
		"concord_park_unparks_total",
		"concord_park_rescues_total",
		"concord_qnode_allocs_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("scrape missing %s:\n%s", name, out)
		}
	}
	// The blocking acquisition above must be visible as at least one park
	// and one unpark (process-global counters, so >= not ==).
	for _, frag := range []string{"concord_park_parks_total 0\n", "concord_park_unparks_total 0\n"} {
		if strings.Contains(out, frag) {
			t.Errorf("counter unexpectedly zero: %s\n%s", frag, out)
		}
	}
}

// TestSchedFuzzCountersExported: the schedule fuzzer's counters (kept
// in the schedstats leaf package to break the obs<-schedfuzz cycle)
// must appear in every scrape.
func TestSchedFuzzCountersExported(t *testing.T) {
	base := schedstats.Snapshot()
	schedstats.AddDecision()
	schedstats.AddForcedPark()
	schedstats.AddFailure()

	tel := NewTelemetry()
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"concord_schedfuzz_decisions_total",
		"concord_schedfuzz_forced_parks_total",
		"concord_schedfuzz_failures_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("scrape missing %s:\n%s", name, out)
		}
	}
	now := schedstats.Snapshot()
	if now.Decisions <= base.Decisions || now.ForcedParks <= base.ForcedParks ||
		now.Failures <= base.Failures {
		t.Errorf("counters did not advance: %+v -> %+v", base, now)
	}
}
