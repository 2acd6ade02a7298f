package schedfuzz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"concord/internal/core"
	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/task"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// InvariantError marks a fuzzer-detected correctness violation (as
// opposed to an operational error standing up the target).
type InvariantError struct{ Msg string }

func (e *InvariantError) Error() string { return "schedfuzz: invariant violated: " + e.Msg }

// Invariantf builds an InvariantError.
func Invariantf(format string, args ...any) error {
	return &InvariantError{Msg: fmt.Sprintf(format, args...)}
}

// IsInvariant reports whether err is a fuzzer invariant violation.
func IsInvariant(err error) bool {
	var ie *InvariantError
	return errors.As(err, &ie)
}

// Env is the execution context a target runs under.
type Env struct {
	// F adjudicates every schedule decision.
	F *Fuzzer
	// Topo is the virtual machine topology targets should size to.
	Topo *topology.Topology
	// FW is the harness's diagnostic framework when flight recording
	// is armed (nil otherwise). Targets may register their locks with
	// it so failure bundles carry lock telemetry.
	FW *core.Framework
	// FlightDir, when non-empty, is where targets that build their own
	// framework (the chaos target) should point their flight recorder.
	FlightDir string

	mu   sync.Mutex
	plan map[string]faultinject.Config
}

// RecordPlan notes the faultinject sites a target armed, so the
// schedule file carries the full reproduction recipe.
func (e *Env) RecordPlan(sites map[string]faultinject.Config) {
	e.mu.Lock()
	e.plan = sites
	e.mu.Unlock()
}

func (e *Env) recordedPlan() map[string]faultinject.Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plan
}

// Target is one fuzzable workload: it runs under a fuzzer-perturbed
// schedule and returns nil (clean), an *InvariantError (bug shape
// detected), or an operational error.
type Target interface {
	Name() string
	// Params returns the target's default parameters; the harness
	// overlays user-supplied values and records the merged set in the
	// schedule file.
	Params() map[string]int64
	Run(env *Env, params map[string]int64) error
}

// --- registry ---

var (
	targetsMu sync.Mutex
	targets   = make(map[string]Target)
)

// RegisterTarget adds a target to the registry (duplicate names panic:
// target names are replay identifiers, not runtime data).
func RegisterTarget(t Target) {
	targetsMu.Lock()
	defer targetsMu.Unlock()
	if _, dup := targets[t.Name()]; dup {
		panic(fmt.Sprintf("schedfuzz: duplicate target %q", t.Name()))
	}
	targets[t.Name()] = t
}

// TargetByName looks up a registered target.
func TargetByName(name string) (Target, bool) {
	targetsMu.Lock()
	defer targetsMu.Unlock()
	t, ok := targets[name]
	return t, ok
}

// TargetNames lists registered targets, sorted.
func TargetNames() []string {
	targetsMu.Lock()
	defer targetsMu.Unlock()
	out := make([]string, 0, len(targets))
	for name := range targets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func param(params map[string]int64, key string, def int64) int64 {
	if v, ok := params[key]; ok {
		return v
	}
	return def
}

func init() {
	RegisterTarget(seqLockTarget{})
	RegisterTarget(lockTortureTarget{})
	RegisterTarget(mapChurnTarget{})
	RegisterTarget(selftestTarget{})
}

// --- seq-lock: the deterministic smoke target ---

// seqLockTarget drives a single task through lock/unlock cycles on a
// hooked ShflLock. With one goroutine every hook fires a deterministic
// number of times, so the same seed yields a byte-identical schedule
// log — the anchor of the determinism suite. It exists to pin the
// engine, not to find bugs.
type seqLockTarget struct{}

func (seqLockTarget) Name() string             { return "seq-lock" }
func (seqLockTarget) Params() map[string]int64 { return map[string]int64{"ops": 64} }

func (seqLockTarget) Run(env *Env, params map[string]int64) error {
	l := locks.NewShflLock("schedfuzz_seq")
	if env.FW != nil {
		if err := env.FW.RegisterLock(l); err != nil {
			return err
		}
	}
	defer InstallHooks(env.F, l)()
	tk := task.New(env.Topo)
	ops := param(params, "ops", 64)
	for i := int64(0); i < ops; i++ {
		env.F.Point("target.step")
		l.Lock(tk)
		l.Unlock(tk)
	}
	if msg := l.SafetyError(); msg != "" {
		return Invariantf("seq-lock safety trip: %s", msg)
	}
	return nil
}

// --- lock-torture: the locks suite shape under fuzzed schedules ---

// lockTortureTarget runs the hashtable workload on a fuzz-hooked
// blocking ShflLock: forced parks and spin overrides from the
// schedule_waiter hook plus delays in the profiling hooks drive the
// park/handoff protocol into rare interleavings. Invariants: exact op
// conservation (no operation lost to a dropped or misrouted wakeup)
// and a clean lock safety state.
type lockTortureTarget struct{}

func (lockTortureTarget) Name() string { return "lock-torture" }
func (lockTortureTarget) Params() map[string]int64 {
	return map[string]int64{"workers": 4, "ops": 300, "blocking": 1, "read_pm": 700}
}

func (lockTortureTarget) Run(env *Env, params map[string]int64) error {
	opts := []locks.ShflOption{locks.WithMaxRounds(64)}
	if param(params, "blocking", 1) != 0 {
		opts = append(opts, locks.WithBlocking(true), locks.WithSpinBudget(32))
	}
	l := locks.NewShflLock("schedfuzz_torture", opts...)
	if env.FW != nil {
		if err := env.FW.RegisterLock(l); err != nil {
			return err
		}
	}
	defer InstallHooks(env.F, l)()

	sites, err := ArmFaultPlan(env.F, nil)
	if err != nil {
		return err
	}
	env.RecordPlan(sites)
	defer faultinject.DisarmAll()

	workers := int(param(params, "workers", 4))
	ops := int(param(params, "ops", 300))
	res := workloads.RunHashTable(l, env.Topo, workloads.HashTableConfig{
		Workers:      workers,
		OpsPerWorker: ops,
		ReadFraction: float64(param(params, "read_pm", 700)) / 1000,
	})
	if want := int64(workers) * int64(ops); res.Ops != want {
		return Invariantf("lock-torture lost ops: %d != %d", res.Ops, want)
	}
	if msg := l.SafetyError(); msg != "" {
		return Invariantf("lock-torture safety trip: %s", msg)
	}
	return nil
}

// --- map-churn: the maps suite shape under fuzzed schedules ---

// mapChurnTarget churns distinct keys through a capacity-bounded hash
// map the way the PR 5 tombstone-exhaustion bug was triggered: a few
// long-lived entries plus a stream of insert/lookup/delete churn whose
// delete timing follows schedule choices, so every empty slot is
// eventually spent and inserts must claim tombstones. Invariants: a
// value read back right after insert, well-formed (untorn) words, and
// — the historical bug's signature — no ErrMapFull wedge while the
// map is below max_entries.
type mapChurnTarget struct{}

func (mapChurnTarget) Name() string { return "map-churn" }
func (mapChurnTarget) Params() map[string]int64 {
	return map[string]int64{"entries": 4, "keys": 300, "workers": 2, "long_lived": 2}
}

func (mapChurnTarget) Run(env *Env, params map[string]int64) error {
	entries := int(param(params, "entries", 4))
	keys := param(params, "keys", 300)
	workers := int(param(params, "workers", 2))
	longLived := int(param(params, "long_lived", 2))
	if longLived >= entries {
		longLived = entries - 1
	}
	m := policy.NewHashMap("schedfuzz_churn", 8, 8, entries)

	mkKey := func(v uint64) []byte {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], v)
		return k[:]
	}
	wellFormed := func(x uint32) uint64 { return uint64(x)<<32 | uint64(x) }

	// Long-lived entries that must survive the churn.
	for i := 0; i < longLived; i++ {
		if err := m.Update(mkKey(uint64(i)), []uint64{wellFormed(uint32(i))}, 0); err != nil {
			return fmt.Errorf("map-churn long-lived insert: %w", err)
		}
	}

	var (
		wg   sync.WaitGroup
		fail atomic.Pointer[InvariantError]
	)
	violate := func(format string, args ...any) {
		fail.CompareAndSwap(nil, &InvariantError{Msg: fmt.Sprintf(format, args...)})
	}
	// Each worker owns a disjoint distinct-key range (keyed off a large
	// stride) and holds at most one undeleted churn key at a time, so
	// total live entries never legitimately exceed max_entries — any
	// ErrMapFull is either transient reservation pressure (workers > 1,
	// tolerated inline, caught by the sequential wedge probe below) or
	// the tombstone-exhaustion wedge itself (workers == 1, flagged
	// immediately).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var backlog []uint64
			for i := int64(0); i < keys; i++ {
				if fail.Load() != nil {
					return
				}
				k := uint64(1000) + uint64(w)*1_000_000 + uint64(i)
				env.F.Point("maps.op")
				if err := m.Update(mkKey(k), []uint64{wellFormed(uint32(k))}, 0); err != nil {
					if errors.Is(err, policy.ErrMapFull) && workers == 1 {
						violate("map wedged: insert %d got ErrMapFull with %d/%d live entries",
							k, m.Len(), m.MaxEntries())
					}
					continue
				}
				if v := m.Lookup(mkKey(k), 0); v == nil {
					violate("key %d vanished right after insert", k)
				} else if x := atomic.LoadUint64(&v[0]); uint32(x>>32) != uint32(x) {
					violate("torn value for key %d: %#x", k, x)
				}
				// Schedule choice: delete now, or hold the key across
				// the next operation to vary tombstone timing.
				if env.F.Choose("maps.delete_now", 2) == 1 || len(backlog) > 0 {
					for _, bk := range append(backlog[:0:0], backlog...) {
						_ = m.Delete(mkKey(bk))
					}
					backlog = backlog[:0]
					_ = m.Delete(mkKey(k))
				} else {
					backlog = append(backlog, k)
				}
			}
			for _, bk := range backlog {
				_ = m.Delete(mkKey(bk))
			}
		}(w)
	}
	wg.Wait()
	if ie := fail.Load(); ie != nil {
		return ie
	}

	// Sequential wedge probe: after the churn quiesces, inserts must
	// succeed while the map is below max_entries. The pre-fix table
	// wedges here at near-zero occupancy (empties exhausted, remembered
	// tombstones never claimed).
	probe := uint64(1 << 40)
	for m.Len() < m.MaxEntries() {
		if err := m.Update(mkKey(probe), []uint64{wellFormed(uint32(probe))}, 0); err != nil {
			return Invariantf("map wedged after churn: insert got %v with %d/%d live entries",
				err, m.Len(), m.MaxEntries())
		}
		probe++
	}
	// Long-lived entries survived with their values intact.
	for i := 0; i < longLived; i++ {
		if v := m.Lookup(mkKey(uint64(i)), 0); v == nil || v[0] != wellFormed(uint32(i)) {
			return Invariantf("long-lived key %d corrupted: %v", i, v)
		}
	}
	return nil
}

// --- selftest: the pipeline check ---

// selftestTarget deterministically fails for most seeds: each step
// draws a schedule choice and a specific face is declared a failure.
// It exists so the record→schedule-file→replay pipeline can be
// exercised end to end (in tests, CI and `concordctl schedfuzz run
// -target selftest`) without waiting for a real bug, the way
// `concordctl health -inject` demos the breaker.
type selftestTarget struct{}

func (selftestTarget) Name() string { return "selftest" }
func (selftestTarget) Params() map[string]int64 {
	return map[string]int64{"ops": 16, "faces": 4, "fail_on": 3}
}

func (selftestTarget) Run(env *Env, params map[string]int64) error {
	ops := param(params, "ops", 16)
	faces := int(param(params, "faces", 4))
	failOn := int(param(params, "fail_on", 3))
	for i := int64(0); i < ops; i++ {
		env.F.Point("selftest.step")
		if c := env.F.Choose("selftest.coin", faces); c == failOn {
			return Invariantf("selftest coin landed on %d at step %d", c, i)
		}
	}
	return nil
}
