package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/task"
)

// loadDSL compiles a DSL source and registers it as a policy.
func loadDSL(t *testing.T, f *Framework, name, src string) *Policy {
	t.Helper()
	unit, err := policydsl.CompileAndVerify(src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	p, err := f.LoadPolicy(name, unit.Programs...)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return p
}

const writerASrc = `map shared hash(key = 8, value = 8, entries = 64);
policy lock_acquired wa { shared[ctx.lock_id] = ctx.wait_ns; return 0; }`

const writerBSrc = `map shared hash(key = 8, value = 8, entries = 64);
policy lock_contended wb { shared[ctx.lock_id] += 1; return 0; }`

const readerSrc = `map shared hash(key = 8, value = 8, entries = 64);
policy skip_shuffle rd {
	if (shared[ctx.lock_id] > 1000) { return 1; }
	return 0;
}`

func interferenceFramework(t *testing.T) *Framework {
	t.Helper()
	f := newFramework()
	for _, name := range []string{"l1", "l2"} {
		if err := f.RegisterLock(locks.NewShflLock(name)); err != nil {
			t.Fatal(err)
		}
	}
	loadDSL(t, f, "writer-a", writerASrc)
	loadDSL(t, f, "writer-b", writerBSrc)
	loadDSL(t, f, "reader", readerSrc)
	return f
}

// TestAttachRejectsInterferingWrites is the admission acceptance case:
// with InterferenceReject configured, attaching two policies that both
// statically write the same map — on different locks — fails closed.
func TestAttachRejectsInterferingWrites(t *testing.T) {
	f := interferenceFramework(t)
	f.SetSupervisorConfig(SupervisorConfig{Interference: InterferenceReject})

	att, err := f.Attach("l1", "writer-a")
	if err != nil {
		t.Fatalf("first writer: %v", err)
	}
	att.Wait()
	if n := len(att.Interference()); n != 0 {
		t.Fatalf("first attach records %d findings, want 0", n)
	}

	_, err = f.Attach("l2", "writer-b")
	if !errors.Is(err, ErrInterference) {
		t.Fatalf("Attach = %v, want ErrInterference", err)
	}
	// The error names the conflict pair and the shared map.
	for _, want := range []string{"writer-b", "writer-a", "l1", "l2", "map shared", "write-write"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rejection error lacks %q: %v", want, err)
		}
	}

	// The rejected policy never reached the lock's hook table.
	for _, info := range f.Locks() {
		if info.Name == "l2" && info.Policy != "" {
			t.Errorf("l2 has policy %q after rejected attach", info.Policy)
		}
	}

	// A read-write conflict is not blocking: the reader attaches, with
	// the finding recorded.
	ratt, err := f.Attach("l2", "reader")
	if err != nil {
		t.Fatalf("reader under reject mode: %v", err)
	}
	ratt.Wait()
	fs := ratt.Interference()
	if len(fs) != 1 || fs[0].Conflict.Class != "read-write" || fs[0].Policy != "writer-a" || fs[0].Lock != "l1" {
		t.Fatalf("reader findings = %+v", fs)
	}
}

// TestAttachWarnModeRecordsConflicts: the default mode admits the
// conflicting pair but surfaces the findings on the attachment.
func TestAttachWarnModeRecordsConflicts(t *testing.T) {
	f := interferenceFramework(t)

	a1, err := f.Attach("l1", "writer-a")
	if err != nil {
		t.Fatal(err)
	}
	a1.Wait()
	a2, err := f.Attach("l2", "writer-b")
	if err != nil {
		t.Fatalf("warn mode rejected: %v", err)
	}
	a2.Wait()
	fs := a2.Interference()
	if len(fs) != 1 || !fs[0].Conflict.Blocking() {
		t.Fatalf("warn-mode findings = %+v", fs)
	}
	if s := fs[0].String(); !strings.Contains(s, "writer-a") || !strings.Contains(s, "l1") {
		t.Errorf("finding string %q lacks the other side", s)
	}
}

// TestAttachInterferenceOffAndSelf: Off skips the analysis; the same
// policy attached to many locks never conflicts with itself.
func TestAttachInterferenceOffAndSelf(t *testing.T) {
	f := interferenceFramework(t)
	f.SetSupervisorConfig(SupervisorConfig{Interference: InterferenceOff})
	if a, err := f.Attach("l1", "writer-a"); err != nil {
		t.Fatal(err)
	} else {
		a.Wait()
	}
	a2, err := f.Attach("l2", "writer-b")
	if err != nil {
		t.Fatalf("off mode rejected: %v", err)
	}
	a2.Wait()
	if n := len(a2.Interference()); n != 0 {
		t.Fatalf("off mode recorded %d findings", n)
	}

	f2 := interferenceFramework(t)
	f2.SetSupervisorConfig(SupervisorConfig{Interference: InterferenceReject})
	if a, err := f2.Attach("l1", "writer-a"); err != nil {
		t.Fatal(err)
	} else {
		a.Wait()
	}
	a2, err = f2.Attach("l2", "writer-a")
	if err != nil {
		t.Fatalf("same policy on second lock: %v", err)
	}
	a2.Wait()
	if n := len(a2.Interference()); n != 0 {
		t.Fatalf("policy conflicts with itself: %d findings", n)
	}
}

// TestComposeRejectsInterferingConstituents: under Reject mode, fusing
// two policies that write the same map is refused (the later program
// would clobber the earlier one's state on every event); a writer and a
// reader still compose.
func TestComposeRejectsInterferingConstituents(t *testing.T) {
	f := interferenceFramework(t)
	f.SetSupervisorConfig(SupervisorConfig{Interference: InterferenceReject})

	_, err := f.Compose("both-writers", "writer-a", "writer-b")
	if !errors.Is(err, ErrInterference) {
		t.Fatalf("Compose = %v, want ErrInterference", err)
	}

	p, err := f.Compose("writer-reader", "writer-a", "reader")
	if err != nil {
		t.Fatalf("writer+reader compose: %v", err)
	}
	if len(p.Kinds()) != 2 {
		t.Fatalf("composed kinds = %v", p.Kinds())
	}

	// Warn (default) mode composes both writers.
	f2 := interferenceFramework(t)
	if _, err := f2.Compose("both-writers", "writer-a", "writer-b"); err != nil {
		t.Fatalf("warn-mode compose: %v", err)
	}
}

// TestNativePoliciesSkipInterference: native hook tables carry no
// analysis, so they neither produce nor receive findings.
func TestNativePoliciesSkipInterference(t *testing.T) {
	f := interferenceFramework(t)
	f.SetSupervisorConfig(SupervisorConfig{Interference: InterferenceReject})
	if _, err := f.LoadNative("native", &locks.Hooks{Name: "native",
		CmpNode: func(info *locks.ShuffleInfo) bool { return false }}); err != nil {
		t.Fatal(err)
	}
	if a, err := f.Attach("l1", "writer-a"); err != nil {
		t.Fatal(err)
	} else {
		a.Wait()
	}
	a2, err := f.Attach("l2", "native")
	if err != nil {
		t.Fatalf("native attach: %v", err)
	}
	a2.Wait()
	if n := len(a2.Interference()); n != 0 {
		t.Fatalf("native policy has %d findings", n)
	}
}

// TestMapStorageIsPerLoad pins what equal map names mean at runtime:
// nothing. Each load from source brings its own maps and LoadPolicy binds
// them as given, so wait-gate.pol beside profile-waits.pol reads its own,
// empty worstwait — while the analyzer, treating equal names as one
// storage, still reports the pair's read-write finding.
func TestMapStorageIsPerLoad(t *testing.T) {
	srcs := shippedPolicies(t)
	f := newFramework()
	l1, l2 := locks.NewShflLock("l1"), locks.NewShflLock("l2")
	for _, l := range []*locks.ShflLock{l1, l2} {
		if err := f.RegisterLock(l); err != nil {
			t.Fatal(err)
		}
	}
	pw := loadDSL(t, f, "profile-waits", srcs["profile-waits"])
	wg := loadDSL(t, f, "wait-gate", srcs["wait-gate"])
	written, _ := pw.Programs[policy.KindLockAcquired].MapByName("worstwait")
	read, _ := wg.Programs[policy.KindSkipShuffle].MapByName("worstwait")
	if written == nil || read == nil || written == read {
		t.Fatalf("worstwait objects %p and %p: want two", written, read)
	}
	for _, a := range []struct{ lock, policy string }{{"l1", "profile-waits"}, {"l2", "wait-gate"}} {
		att, err := f.Attach(a.lock, a.policy)
		if err != nil {
			t.Fatal(err)
		}
		att.Wait()
		if a.policy == "wait-gate" {
			fs := att.Interference()
			if len(fs) != 1 || fs[0].Conflict.Map != "worstwait" || fs[0].Conflict.Class != "read-write" {
				t.Errorf("wait-gate findings = %+v, want the read-write finding on worstwait", fs)
			}
		}
	}

	// profile-waits records a 5 ms wait under l2's ID; wait-gate on l2
	// would stop shuffling past 1 ms if it could see it.
	tk := task.New(f.Topology())
	l1.HookSlot().Peek().OnAcquired(&locks.Event{LockID: l2.ID(), Task: tk, WaitNS: 5_000_000})
	key := binary.LittleEndian.AppendUint64(nil, l2.ID())
	if v := written.Lookup(key, 0); len(v) == 0 || v[0] != 5_000_000 {
		t.Fatalf("profile-waits did not record the wait: %v", v)
	}
	if v := read.Lookup(key, 0); v != nil {
		t.Errorf("wait-gate's worstwait holds %v: storage shared across loads", v)
	}
	info := locks.ShuffleInfo{LockID: l2.ID(), Shuffler: &locks.Waiter{Task: tk}, Curr: &locks.Waiter{Task: tk}}
	if l2.HookSlot().Peek().SkipShuffle(&info) {
		t.Error("wait-gate skipped the shuffle on a wait recorded in another load's map")
	}
}
