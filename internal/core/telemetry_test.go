package core

import (
	"strconv"
	"strings"
	"testing"

	"concord/internal/locks"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/task"
	"concord/internal/workloads"
)

// promValue finds the first exposition line starting with prefix and
// returns its value.
func promValue(t *testing.T, out, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample with prefix %q:\n%s", prefix, out)
	return 0
}

// TestTelemetryEndToEnd is the acceptance scenario: a hashtable workload
// against an instrumented framework must surface per-lock wait
// histograms, policy VM instruction counters, and livepatch epoch-drain
// latency on /metrics.
func TestTelemetryEndToEnd(t *testing.T) {
	f := newFramework()
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	defer f.EnableTelemetry(nil)

	l := locks.NewShflLock("ht_lock")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}

	// cmp_node exercises the shuffler path; lock_acquired runs on every
	// acquisition so the VM counters are deterministically nonzero.
	counter := policy.NewBuilder("count", policy.KindLockAcquired).
		ReturnImm(0).
		MustProgram()
	if _, err := f.LoadPolicy("numa", numaCmpProgram(t), counter); err != nil {
		t.Fatal(err)
	}
	att, err := f.Attach("ht_lock", "numa")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	res := workloads.RunHashTable(l, f.Topology(), workloads.HashTableConfig{
		Workers: 8, OpsPerWorker: 500, ReadFraction: 0.7,
	})
	if res.Ops != 8*500 {
		t.Fatalf("workload ran %d ops", res.Ops)
	}

	patch, err := f.Detach("ht_lock")
	if err != nil {
		t.Fatal(err)
	}
	patch.Wait()

	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Per-lock wait and hold histograms.
	if got := promValue(t, out, `concord_lock_acquisitions_total{lock="ht_lock"}`); got != 4000 {
		t.Errorf("acquisitions = %v, want 4000", got)
	}
	if got := promValue(t, out, `concord_lock_wait_ns_count{lock="ht_lock"}`); got != 4000 {
		t.Errorf("wait histogram count = %v, want 4000", got)
	}
	if !strings.Contains(out, `concord_lock_wait_ns_bucket{lock="ht_lock",le="+Inf"} 4000`) {
		t.Error("wait histogram missing +Inf bucket")
	}

	// Policy VM counters, labeled per program.
	vmLabels := `{kind="lock_acquired",policy="numa",program="count"}`
	if got := promValue(t, out, "concord_vm_runs_total"+vmLabels); got != 4000 {
		t.Errorf("vm runs = %v, want 4000", got)
	}
	if got := promValue(t, out, "concord_vm_instructions_total"+vmLabels); got < 4000 {
		t.Errorf("vm instructions = %v, want >= 4000", got)
	}
	if got := promValue(t, out, "concord_vm_faults_total"+vmLabels); got != 0 {
		t.Errorf("vm faults = %v, want 0", got)
	}

	// Livepatch transitions (register + attach + detach) and epoch drain.
	if got := promValue(t, out, "concord_livepatch_transitions_total"); got < 3 {
		t.Errorf("livepatch transitions = %v, want >= 3", got)
	}
	if got := promValue(t, out, "concord_livepatch_drain_ns_count"); got < 2 {
		t.Errorf("drain latency observations = %v, want >= 2", got)
	}

	// Lifecycle instruments.
	if got := promValue(t, out, "concord_policy_loads_total"); got != 1 {
		t.Errorf("policy loads = %v", got)
	}
	if got := promValue(t, out, "concord_attaches_total"); got != 1 {
		t.Errorf("attaches = %v", got)
	}
	if got := promValue(t, out, "concord_detaches_total"); got != 1 {
		t.Errorf("detaches = %v", got)
	}
	if got := promValue(t, out, "concord_locks_registered"); got != 1 {
		t.Errorf("locks registered = %v", got)
	}
	// The safety counters exist (at zero) even when nothing went wrong.
	if got := promValue(t, out, "concord_safety_fallbacks_total"); got != 0 {
		t.Errorf("safety fallbacks = %v", got)
	}

	// The structured views agree with the exposition.
	rows := f.LockRows()
	if len(rows) != 1 || rows[0].Lock != "ht_lock" || rows[0].Acquisitions != 4000 {
		t.Errorf("LockRows = %+v", rows)
	}
	prows := f.PolicyRows()
	if len(prows) != 1 || prows[0].Runs < 4000 {
		t.Errorf("PolicyRows = %+v", prows)
	}
	if got := f.LockNameByID(l.ID()); got != "ht_lock" {
		t.Errorf("LockNameByID = %q", got)
	}

	// The trace ring captured raw events renderable as Perfetto JSON.
	trace, err := tel.TraceJSON(f.LockNameByID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), "hold ht_lock") {
		t.Error("trace missing hold slices for ht_lock")
	}
}

// TestTelemetryFaultFallback verifies the safety valve with telemetry
// enabled: a faulting policy is detached, the fallback table keeps the
// telemetry hooks, and the fault + fallback counters record it.
func TestTelemetryFaultFallback(t *testing.T) {
	f := newFramework()
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	defer f.EnableTelemetry(nil)

	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	m := policy.NewArrayMap("m", 8, 1)
	prog := policy.NewBuilder("faulty", policy.KindLockAcquired).
		StoreStackImm(policy.OpStW, -4, 0).
		LoadMapPtr(policy.R1, m).
		MovReg(policy.R2, policy.RFP).
		AddImm(policy.R2, -4).
		Call(policy.HelperMapLookup).
		ReturnImm(0).
		MustProgram()
	pol, err := f.LoadPolicy("faulty", prog)
	if err != nil {
		t.Fatal(err)
	}
	corruptMaps(pol.Programs[policy.KindLockAcquired]) // post-verification
	att, err := f.Attach("l", "faulty")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()
	// The fault must reach telemetry from the interpreter tier too.
	if _, err := f.SetTier("l", TierForceVM); err != nil {
		t.Fatal(err)
	}

	tk := task.New(f.Topology())
	l.Lock(tk)
	l.Unlock(tk)
	if att.Faults() == 0 {
		t.Fatal("fault not detected")
	}

	if got := tel.PolicyFaults.Value(); got == 0 {
		t.Error("policy fault not counted")
	}
	if got := tel.SafetyFallbacks.Value(); got != 1 {
		t.Errorf("safety fallbacks = %d, want 1", got)
	}
	// The fallback preserved instrumentation: the published hooks are
	// the telemetry table, not nil.
	hooks := l.HookSlot().Peek()
	if hooks == nil || hooks.Name != "telemetry" {
		t.Fatalf("fallback hooks = %+v, want telemetry", hooks)
	}
	// And they still count.
	before := tel.Registry.Counter("concord_lock_acquisitions_total", "", "lock", "l").Value()
	l.Lock(tk)
	l.Unlock(tk)
	after := tel.Registry.Counter("concord_lock_acquisitions_total", "", "lock", "l").Value()
	if after != before+1 {
		t.Errorf("acquisitions %d -> %d; telemetry lost after fallback", before, after)
	}
}

// TestEnableTelemetryLate verifies instrumentation of locks registered
// and policies attached before telemetry was enabled.
func TestEnableTelemetryLate(t *testing.T) {
	f := newFramework()
	l := locks.NewShflLock("early")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadNative("fifo", &locks.Hooks{
		Name:    "fifo",
		CmpNode: func(*locks.ShuffleInfo) bool { return false },
	}); err != nil {
		t.Fatal(err)
	}
	att, err := f.Attach("early", "fifo")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	defer f.EnableTelemetry(nil)

	tk := task.New(f.Topology())
	l.Lock(tk)
	l.Unlock(tk)
	if got := tel.Registry.Counter("concord_lock_acquisitions_total", "", "lock", "early").Value(); got != 1 {
		t.Errorf("late-enabled telemetry counted %d acquisitions, want 1", got)
	}
	// The policy's behavioural hooks survived the re-patch.
	hooks := l.HookSlot().Peek()
	if hooks == nil || hooks.CmpNode == nil {
		t.Error("re-patch dropped the attached policy's hooks")
	}
	if got := tel.PoliciesLoaded.Value(); got != 1 {
		t.Errorf("policies loaded gauge = %d", got)
	}
}

// TestOCCAndCapacityTelemetry pins the per-lock optimistic-tier counters
// for OCC-capable locks and the occupancy/tombstone/capacity gauges of a
// policy map, whose capacity is fixed when it is created.
func TestOCCAndCapacityTelemetry(t *testing.T) {
	f := newFramework()
	tel := obs.NewTelemetry()
	f.EnableTelemetry(tel)
	defer f.EnableTelemetry(nil)

	l := locks.NewRWSem("occ_rw")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	l.OCCSetMode(locks.OCCOn)
	tk := task.New(f.Topology())
	var sink uint64
	l.OptRead(tk, func() { sink++ })
	l.Lock(tk)
	l.Unlock(tk)
	// The promoted gauge tracks the policy-driven auto-mode bit, which a
	// forced mode bypasses — flip to auto and promote to pin it too.
	l.OCCSetMode(locks.OCCAuto)
	if !l.OCCPromote(true) {
		t.Fatal("OCCPromote(true) refused in auto mode")
	}

	// A loaded policy carrying a hash map filled to its budget, then a
	// quarter of it deleted.
	m := policy.NewHashMap("hmap", 8, 8, 32)
	prog, err := policy.Assemble("noop", policy.KindLockAcquired, `
		ldmap r1, hmap
		mov   r0, 0
		exit
	`, map[string]policy.Map{"hmap": m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadPolicy("fill", prog); err != nil {
		t.Fatal(err)
	}
	var key [8]byte
	for i := 0; i < 32; i++ {
		key[0] = byte(i)
		if err := m.Update(key[:], []uint64{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		key[0] = byte(i)
		if err := m.Delete(key[:]); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if got := promValue(t, out, `concord_occ_reads_total{lock="occ_rw"}`); got != 1 {
		t.Errorf("occ reads = %v, want 1", got)
	}
	if got := promValue(t, out, `concord_occ_promoted{lock="occ_rw"}`); got != 1 {
		t.Errorf("occ promoted gauge = %v, want 1 (mode is forced on)", got)
	}
	if got := promValue(t, out, "concord_map_capacity"); got != 64 {
		t.Errorf("map capacity = %v, want 64 slots for 32 entries", got)
	}
	if got := promValue(t, out, "concord_map_occupancy"); got != 24 {
		t.Errorf("map occupancy = %v, want 24", got)
	}
	if got := promValue(t, out, "concord_map_tombstones"); got != 8 {
		t.Errorf("map tombstones = %v, want 8", got)
	}
}
