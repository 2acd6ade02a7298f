package policy

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"concord/internal/clock"
)

// HelperID identifies a helper function callable from policy programs,
// the analogue of eBPF helper IDs.
type HelperID int64

// The helper set. The first four are map accessors; the rest expose the
// execution environment (the information the paper's policies need:
// CPU and NUMA identity, time, task identity — see §4.2 "we use eBPF
// helper functions such as CPU ID, NUMA ID and time").
const (
	HelperMapLookup HelperID = iota + 1 // (map, key*) -> value* | null
	HelperMapUpdate                     // (map, key*, value*) -> 0 | errno
	HelperMapDelete                     // (map, key*) -> 0 | errno
	HelperMapAdd                        // (map, key*, delta) -> 0 | errno; atomic add to word 0
	HelperKtimeNS                       // () -> current time, ns
	HelperCPU                           // () -> current virtual CPU
	HelperNUMANode                      // () -> current NUMA node
	HelperTaskID                        // () -> current task ID
	HelperTaskPrio                      // () -> current task priority
	HelperRand                          // () -> pseudo-random u64
	HelperTrace                         // (val) -> 0; records val for debugging
	HelperLockStats                     // (field) -> windowed profile signal of the hooked lock
	HelperOCCSet                        // (on) -> 1 if promotion state changed; optimistic-tier control

	numHelpers
)

var helperNames = map[HelperID]string{
	HelperMapLookup: "map_lookup",
	HelperMapUpdate: "map_update",
	HelperMapDelete: "map_delete",
	HelperMapAdd:    "map_add",
	HelperKtimeNS:   "ktime_ns",
	HelperCPU:       "cpu",
	HelperNUMANode:  "numa_node",
	HelperTaskID:    "task_id",
	HelperTaskPrio:  "task_prio",
	HelperRand:      "rand",
	HelperTrace:     "trace",
	HelperLockStats: "lock_stats_read",
	HelperOCCSet:    "occ_set",
}

// String implements fmt.Stringer.
func (h HelperID) String() string {
	if n, ok := helperNames[h]; ok {
		return n
	}
	return "helper(?)"
}

// HelperByName resolves a helper by its assembler name. Matching is
// case-insensitive: the assembler lower-cases mnemonics but used to pass
// operands through verbatim, so `call KTIME_NS` failed while
// `call ktime_ns` worked. Normalizing here fixes every caller at once.
func HelperByName(name string) (HelperID, bool) {
	name = strings.ToLower(name)
	for id, n := range helperNames {
		if n == name {
			return id, true
		}
	}
	return 0, false
}

// argKind classifies a helper argument for the verifier.
type argKind int

const (
	argNone        argKind = iota
	argScalar              // any initialized scalar
	argConstMapPtr         // a register loaded with OpLoadMapPtr
	argStackKey            // pointer to an initialized stack region of the map's key size
	argStackValue          // pointer to an initialized stack region of the map's value size
)

// retKind classifies a helper return value for the verifier.
type retKind int

const (
	retScalar retKind = iota
	retMapValueOrNull
)

// helperSpec is the verifier-facing signature of a helper.
type helperSpec struct {
	id   HelperID
	name string
	args []argKind
	ret  retKind
	// readOnlyPath marks helpers allowed even in the shuffler fast path
	// (cmp_node / skip_shuffle), where mutation helpers are disallowed to
	// bound the work done while the queue is being reordered.
	readOnlyPath bool
}

var helperSpecs = map[HelperID]helperSpec{
	HelperMapLookup: {HelperMapLookup, "map_lookup", []argKind{argConstMapPtr, argStackKey}, retMapValueOrNull, true},
	HelperMapUpdate: {HelperMapUpdate, "map_update", []argKind{argConstMapPtr, argStackKey, argStackValue}, retScalar, false},
	HelperMapDelete: {HelperMapDelete, "map_delete", []argKind{argConstMapPtr, argStackKey}, retScalar, false},
	HelperMapAdd:    {HelperMapAdd, "map_add", []argKind{argConstMapPtr, argStackKey, argScalar}, retScalar, true},
	HelperKtimeNS:   {HelperKtimeNS, "ktime_ns", nil, retScalar, true},
	HelperCPU:       {HelperCPU, "cpu", nil, retScalar, true},
	HelperNUMANode:  {HelperNUMANode, "numa_node", nil, retScalar, true},
	HelperTaskID:    {HelperTaskID, "task_id", nil, retScalar, true},
	HelperTaskPrio:  {HelperTaskPrio, "task_prio", nil, retScalar, true},
	HelperRand:      {HelperRand, "rand", nil, retScalar, true},
	HelperTrace:     {HelperTrace, "trace", []argKind{argScalar}, retScalar, true},
	HelperLockStats: {HelperLockStats, "lock_stats_read", []argKind{argScalar}, retScalar, true},
	// occ_set mutates lock state, so it is barred from the bounded
	// shuffler fast path like the other mutation helpers.
	HelperOCCSet: {HelperOCCSet, "occ_set", []argKind{argScalar}, retScalar, false},
}

// helperAllowed reports whether helper h may be called from programs of
// kind k. The shuffler-path kinds (cmp_node, skip_shuffle) are restricted
// to read-only / atomic helpers; every other kind may use the full set.
func helperAllowed(h HelperID, k Kind) bool {
	spec, ok := helperSpecs[h]
	if !ok {
		return false
	}
	if k == KindCmpNode || k == KindSkipShuffle {
		return spec.readOnlyPath
	}
	return true
}

// Env supplies the execution environment a program observes through
// helpers. The framework adapts the current task and clock to this
// interface; tests substitute deterministic implementations.
type Env interface {
	// NowNS is the policy-visible clock, in nanoseconds.
	NowNS() int64
	// CPU is the current virtual CPU.
	CPU() int
	// NUMANode is the NUMA node of the current virtual CPU.
	NUMANode() int
	// TaskID identifies the current task.
	TaskID() int64
	// TaskPriority is the current task's scheduling priority.
	TaskPriority() int64
	// Rand returns a pseudo-random value.
	Rand() uint64
	// Trace records a debug value emitted by the trace helper.
	Trace(v uint64)
}

// LockStatReader is the optional Env extension behind lock_stats_read:
// environments that can see the hooked lock's windowed profile (the
// continuous profiler's last completed window) implement it; on plain
// environments the helper reads 0, so profile-gated policies degrade to
// their low-contention branch instead of failing verification or
// execution. Field IDs are defined by internal/profile (Field*).
type LockStatReader interface {
	// LockStat returns one windowed profile signal of the lock this
	// program is hooked to, by field ID; unknown fields read 0.
	LockStat(field uint64) uint64
}

// OCCSetter is the optional Env extension behind occ_set: environments
// attached to a lock with an optimistic read tier implement it to route
// the policy's promotion/demotion decision to that lock instance. On
// plain environments the helper returns 0 ("no change"), so occ-gating
// policies are inert rather than invalid where the tier is absent.
type OCCSetter interface {
	// OCCSet requests promotion (on != 0) or demotion (on == 0) of the
	// hooked lock's optimistic tier; returns 1 if the state changed.
	OCCSet(on uint64) uint64
}

// FuncEnv is an Env assembled from optional function fields; nil fields
// fall back to zero values. It is the simplest way to build custom
// environments in tests and tools.
type FuncEnv struct {
	NowNSFn    func() int64
	CPUFn      func() int
	NUMAFn     func() int
	TaskIDFn   func() int64
	TaskPrioFn func() int64
	RandFn     func() uint64
	TraceFn    func(uint64)
	// LockStatFn backs the lock_stats_read helper (nil reads 0).
	LockStatFn func(field uint64) uint64
	// OCCSetFn backs the occ_set helper (nil returns 0).
	OCCSetFn func(on uint64) uint64
}

// NowNS implements Env.
func (e *FuncEnv) NowNS() int64 {
	if e.NowNSFn != nil {
		return e.NowNSFn()
	}
	return 0
}

// CPU implements Env.
func (e *FuncEnv) CPU() int {
	if e.CPUFn != nil {
		return e.CPUFn()
	}
	return 0
}

// NUMANode implements Env.
func (e *FuncEnv) NUMANode() int {
	if e.NUMAFn != nil {
		return e.NUMAFn()
	}
	return 0
}

// TaskID implements Env.
func (e *FuncEnv) TaskID() int64 {
	if e.TaskIDFn != nil {
		return e.TaskIDFn()
	}
	return 0
}

// TaskPriority implements Env.
func (e *FuncEnv) TaskPriority() int64 {
	if e.TaskPrioFn != nil {
		return e.TaskPrioFn()
	}
	return 0
}

// Rand implements Env.
func (e *FuncEnv) Rand() uint64 {
	if e.RandFn != nil {
		return e.RandFn()
	}
	return 0
}

// Trace implements Env.
func (e *FuncEnv) Trace(v uint64) {
	if e.TraceFn != nil {
		e.TraceFn(v)
	}
}

// LockStat implements LockStatReader.
func (e *FuncEnv) LockStat(field uint64) uint64 {
	if e.LockStatFn != nil {
		return e.LockStatFn(field)
	}
	return 0
}

// OCCSet implements OCCSetter.
func (e *FuncEnv) OCCSet(on uint64) uint64 {
	if e.OCCSetFn != nil {
		return e.OCCSetFn(on)
	}
	return 0
}

// TestEnv is a deterministic Env that records traced values; handy in
// tests and in concordctl's dry-run mode.
type TestEnv struct {
	Now      atomic.Int64
	CPUID    int
	NUMA     int
	Task     int64
	Prio     int64
	randSeed uint64
	// LockStats seeds lock_stats_read fields (field ID -> value).
	LockStats map[uint64]uint64
	// OCCState records the last occ_set request (1+on); zero means the
	// helper never ran. Reads count state changes like a real lock.
	OCCState atomic.Uint64

	mu     sync.Mutex
	traces []uint64
}

// NowNS implements Env.
func (e *TestEnv) NowNS() int64 { return e.Now.Load() }

// CPU implements Env.
func (e *TestEnv) CPU() int { return e.CPUID }

// NUMANode implements Env.
func (e *TestEnv) NUMANode() int { return e.NUMA }

// TaskID implements Env.
func (e *TestEnv) TaskID() int64 { return e.Task }

// TaskPriority implements Env.
func (e *TestEnv) TaskPriority() int64 { return e.Prio }

// Rand implements Env with a splitmix64 sequence.
func (e *TestEnv) Rand() uint64 {
	e.randSeed += 0x9e3779b97f4a7c15
	z := e.randSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Trace implements Env.
func (e *TestEnv) Trace(v uint64) {
	e.mu.Lock()
	e.traces = append(e.traces, v)
	e.mu.Unlock()
}

// LockStat implements LockStatReader from the LockStats map.
func (e *TestEnv) LockStat(field uint64) uint64 { return e.LockStats[field] }

// OCCSet implements OCCSetter with promote/demote edge semantics: the
// return value is 1 exactly when the request flipped the recorded state,
// mirroring OCCCapable.OCCPromote on a real lock.
func (e *TestEnv) OCCSet(on uint64) uint64 {
	want := uint64(1)
	if on != 0 {
		want = 2
	}
	if e.OCCState.Swap(want) == want {
		return 0
	}
	return 1
}

// Traces returns a copy of the values traced so far.
func (e *TestEnv) Traces() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint64, len(e.traces))
	copy(out, e.traces)
	return out
}

// realEnv is the Env used when none is supplied: the stack's clock, CPU 0.
type realEnv struct{}

func (realEnv) NowNS() int64        { return clock.NowNS() }
func (realEnv) CPU() int            { return 0 }
func (realEnv) NUMANode() int       { return 0 }
func (realEnv) TaskID() int64       { return 0 }
func (realEnv) TaskPriority() int64 { return 0 }
func (realEnv) Rand() uint64        { return rand.Uint64() }
func (realEnv) Trace(uint64)        {}

// DefaultEnv is the fallback environment (the stack's clock, CPU 0, no task).
var DefaultEnv Env = realEnv{}
