// Package concord is the public API of this repository: a userspace
// implementation of Contextual Concurrency Control (C3) after Park,
// Calciu, Kim and Kashyap, "Contextual Concurrency Control", HotOS '21.
//
// C3 lets applications tune kernel concurrency control: express a lock
// policy as restricted code, verify it, and inject it into lock slow
// paths at runtime. This package re-exports the stable surface of the
// implementation:
//
//   - a Framework that registers locks, verifies policies, and
//     livepatches hook tables (the paper's Concord prototype, §4);
//   - the lock library (ShflLock, BRAVO, MCS, CNA, cohort, rwsem, …)
//     whose Table 1 hook points policies attach to;
//   - the cBPF policy machine: assembler, verifier, VM and maps — the
//     eBPF stand-in;
//   - a selective, per-lock-instance profiler (§3.2);
//   - virtual machine topology so NUMA/AMP policies work on any host.
//
// Quickstart:
//
//	topo := concord.PaperTopology()            // 8 sockets × 10 CPUs
//	fw := concord.New(topo)
//	l := concord.NewShflLock("my_lock")
//	_ = fw.RegisterLock(l)
//
//	prog := concord.MustAssemble("numa", concord.KindCmpNode, `
//	        mov   r6, r1
//	        ldxdw r2, [r6+curr_socket]
//	        ldxdw r3, [r6+shuffler_socket]
//	        jeq   r2, r3, group
//	        mov   r0, 0
//	        exit
//	group:  mov   r0, 1
//	        exit
//	`, nil)
//	_, _ = fw.LoadPolicy("numa", prog)          // verifies
//	att, _ := fw.Attach("my_lock", "numa")      // livepatches
//	att.Wait()                                  // consistency point
//
//	t := concord.NewTask(topo)
//	l.Lock(t); l.Unlock(t)                      // policy now steers the queue
//
// See examples/ for runnable scenarios and DESIGN.md for the system map.
package concord

import (
	"concord/internal/core"
	"concord/internal/faultinject"
	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policydsl"
	"concord/internal/profile"
	"concord/internal/syncx"
	"concord/internal/task"
	"concord/internal/topology"
)

// --- Framework (the paper's primary contribution) ---

// Framework is the Concord control plane: lock registry, policy
// verification and livepatch attachment.
type Framework = core.Framework

// Policy is a named, verified set of hook programs.
type Policy = core.Policy

// Attachment records a policy installed on a lock.
type Attachment = core.Attachment

// Option configures a Framework at construction time.
type Option func(*Framework)

// New creates a Framework over a machine topology. Options extend it;
// see WithTelemetry.
func New(topo *Topology, opts ...Option) *Framework {
	f := core.New(topo)
	for _, o := range opts {
		o(f)
	}
	return f
}

// --- Tasks and topology ---

// Task is the execution context lock operations take (the kernel's
// `current`).
type Task = task.T

// Topology describes the (virtual) machine: sockets, cores, AMP speeds.
type Topology = topology.Topology

// NewTask creates a task pinned round-robin onto topo's virtual CPUs.
func NewTask(topo *Topology) *Task { return task.New(topo) }

// NewTaskOnCPU creates a task pinned to a specific virtual CPU.
func NewTaskOnCPU(topo *Topology, cpu int) *Task { return task.NewOnCPU(topo, cpu) }

// NewTopology builds a sockets × coresPerSocket machine.
func NewTopology(sockets, coresPerSocket int) *Topology {
	return topology.New(sockets, coresPerSocket)
}

// PaperTopology is the eight-socket, 80-core evaluation machine (§5).
func PaperTopology() *Topology { return topology.Paper() }

// BigLittleTopology builds an asymmetric (AMP) machine (§3.1.2).
func BigLittleTopology(big, little int) *Topology { return topology.BigLittle(big, little) }

// --- Locks ---

// Lock is a mutual-exclusion lock; RWLock adds shared acquisitions.
type (
	Lock   = locks.Lock
	RWLock = locks.RWLock
)

// Hooks is a lock's patchable behaviour table (Table 1's seven APIs).
type Hooks = locks.Hooks

// Event is a profiling hook invocation record.
type Event = locks.Event

// ShuffleInfo and WaitInfo are the contexts behavioural hooks receive.
type (
	ShuffleInfo = locks.ShuffleInfo
	WaitInfo    = locks.WaitInfo
)

// ShflLock is the shuffling lock — the primary policy target.
type ShflLock = locks.ShflLock

// BRAVO wraps a readers-writer lock with reader biasing.
type BRAVO = locks.BRAVO

// RWSem is the stock neutral readers-writer semaphore.
type RWSem = locks.RWSem

// Lock constructors, re-exported.
var (
	NewShflLock        = locks.NewShflLock
	NewShflRWLock      = locks.NewShflRWLock
	NewBRAVO           = locks.NewBRAVO
	NewRWSem           = locks.NewRWSem
	NewPerSocketRWLock = locks.NewPerSocketRWLock
	NewMCSLock         = locks.NewMCSLock
	NewCLHLock         = locks.NewCLHLock
	NewCNALock         = locks.NewCNALock
	NewCohortLock      = locks.NewCohortLock
	NewTicketLock      = locks.NewTicketLock
	NewQSpinLock       = locks.NewQSpinLock
	NewTASLock         = locks.NewTASLock
	NewTTASLock        = locks.NewTTASLock
)

// ShflLock options, re-exported.
var (
	WithBlocking        = locks.WithBlocking
	WithSpinBudget      = locks.WithSpinBudget
	WithMaxRounds       = locks.WithMaxRounds
	WithMaxScan         = locks.WithMaxScan
	WithMaxBatch        = locks.WithMaxBatch
	WithBypassBudget    = locks.WithBypassBudget
	WithInvariantChecks = locks.WithInvariantChecks
)

// Pre-compiled policy hook tables (§3 use cases), re-exported.
var (
	FIFOHooks         = locks.FIFOHooks
	NUMAHooks         = locks.NUMAHooks
	PriorityHooks     = locks.PriorityHooks
	InheritanceHooks  = locks.InheritanceHooks
	AMPHooks          = locks.AMPHooks
	SCLHooks          = locks.SCLHooks
	VCPUHooks         = locks.VCPUHooks
	SpinThenParkHooks = locks.SpinThenParkHooks
	ComposeHooks      = locks.ComposeHooks
	// PriorityInheritanceHooks boosts a lock holder to the priority of
	// its highest waiter (§3.1.2).
	PriorityInheritanceHooks = locks.PriorityInheritanceHooks
)

// --- Policies (the cBPF machine) ---

// Program is a cBPF policy program; Kind selects the hook it targets.
type (
	Program = policy.Program
	Kind    = policy.Kind
	Builder = policy.Builder
	Map     = policy.Map
)

// Program kinds: the seven Table 1 hook points.
const (
	KindCmpNode        = policy.KindCmpNode
	KindSkipShuffle    = policy.KindSkipShuffle
	KindScheduleWaiter = policy.KindScheduleWaiter
	KindLockAcquire    = policy.KindLockAcquire
	KindLockContended  = policy.KindLockContended
	KindLockAcquired   = policy.KindLockAcquired
	KindLockRelease    = policy.KindLockRelease
)

// Policy toolchain, re-exported.
var (
	Assemble         = policy.Assemble
	MustAssemble     = policy.MustAssemble
	Verify           = policy.Verify
	NewBuilder       = policy.NewBuilder
	NewArrayMap      = policy.NewArrayMap
	NewHashMap       = policy.NewHashMap
	MarshalProgram   = policy.Marshal
	UnmarshalProgram = policy.Unmarshal
)

// NewPerCPUArrayMap builds a per-virtual-CPU array map.
var NewPerCPUArrayMap = policy.NewPerCPUArrayMap

// NewPerCPUHashMap builds a lock-free hash map with one value stripe
// per virtual CPU — the right kind for hot counting policies.
var NewPerCPUHashMap = policy.NewPerCPUHashMap

// NewLockedHashMap builds the mutex-based hash map kind (unbounded key
// sizes; the lock-free NewHashMap is preferred on hot paths).
var NewLockedHashMap = policy.NewLockedHashMap

// MapStats is a map's data-plane telemetry snapshot (occupancy,
// insert-probe collisions, optimistic read retries).
type MapStats = policy.MapStats

// --- Profiling (§3.2) ---

// Profiler collects per-lock-instance statistics.
type Profiler = profile.Profiler

// LockStats is one lock's profile (a lockstat row).
type LockStats = profile.LockStats

// NewProfiler returns an empty profiler; attach it with
// Framework.StartProfiling.
func NewProfiler() *Profiler { return profile.New() }

// --- Livepatch primitives (advanced use) ---

// Patch is an in-flight hook-table replacement; Wait is the consistency
// point.
type Patch = livepatch.Patch

// ShadowStore attaches out-of-band state to existing objects.
type ShadowStore = livepatch.ShadowStore

// --- The policy DSL (§4.2's "C-style code") ---

// DSLUnit is the result of compiling policy DSL source: programs + maps.
type DSLUnit = policydsl.CompiledUnit

// CompileDSL compiles C-style policy source into verified cBPF programs:
//
//	unit, err := concord.CompileDSL(`
//	    policy cmp_node numa {
//	        return ctx.curr_socket == ctx.shuffler_socket;
//	    }
//	`)
var CompileDSL = policydsl.CompileAndVerify

// ParseDSL compiles without verifying (verification happens at
// Framework.LoadPolicy time).
var ParseDSL = policydsl.Compile

// --- Further synchronization mechanisms (§6 extensions) ---

// SeqLock is a sequence lock whose write side is any Concord lock.
type SeqLock = syncx.SeqLock

// RCU is a userspace read-copy-update domain with grace periods.
type RCU = syncx.RCU

// WaitQueue is a kernel-style wait_event/wake_up queue.
type WaitQueue = syncx.WaitQueue

// NewSeqLock wraps w as the write side of a sequence lock.
func NewSeqLock(w Lock) *SeqLock { return syncx.NewSeqLock(w) }

// NewRCU returns an RCU domain.
func NewRCU() *RCU { return syncx.NewRCU() }

// NewWaitQueue returns an empty wait queue.
func NewWaitQueue() *WaitQueue { return syncx.NewWaitQueue() }

// SwitchableRWLock allows replacing the lock *implementation* at
// runtime with livepatch draining (§3.1.1 "lock switching").
type SwitchableRWLock = locks.SwitchableRWLock

// NewSwitchableRWLock returns a switchable lock starting with initial.
var NewSwitchableRWLock = locks.NewSwitchableRWLock

// TraceRing is a lock-free ring of raw lock events (finest-grained
// profiling; see Profiler for aggregates).
type TraceRing = profile.TraceRing

// NewTraceRing returns a ring holding 2^order trace records.
func NewTraceRing(order uint) *TraceRing { return profile.NewTraceRing(order) }

// --- Robustness: policy supervision and fault injection ---

// SupervisorConfig tunes the per-attachment circuit breaker applied by
// Framework.SetSupervisorConfig: retry budget, exponential backoff,
// probation window, drain deadline, latency watchdog and safety-trip
// escalation. The zero value is the original one-shot valve — the first
// runtime fault permanently detaches the policy.
type SupervisorConfig = core.SupervisorConfig

// BreakerState is an attachment's circuit-breaker state; see
// Attachment.Breaker.
type BreakerState = core.BreakerState

// Breaker states: closed (healthy) → open (detached, backoff pending) →
// half-open (re-attached on probation) → closed again, or quarantined
// (terminal).
const (
	BreakerClosed      = core.BreakerClosed
	BreakerOpen        = core.BreakerOpen
	BreakerHalfOpen    = core.BreakerHalfOpen
	BreakerQuarantined = core.BreakerQuarantined
)

// Supervision and degradation errors, re-exported for errors.Is.
var (
	ErrHookLatency       = core.ErrHookLatency
	ErrHookPanic         = core.ErrHookPanic
	ErrDrainTimeout      = core.ErrDrainTimeout
	ErrTransitionAborted = core.ErrTransitionAborted
	ErrSafetyTrip        = core.ErrSafetyTrip
	// ErrSwitchAborted reports a SwitchableRWLock.SwitchTimeout whose
	// drain deadline passed; the lock stayed on the old implementation.
	ErrSwitchAborted = locks.ErrSwitchAborted
)

// --- Static analysis & admission ---

// AnalysisReport is one program's static-analysis report: worst-case
// cost bound, per-register value ranges, map footprint and safety facts.
// Framework.LoadPolicy computes one per program; `concordctl analyze`
// prints them.
type AnalysisReport = analysis.Report

// AnalysisWarning is one analysis finding (e.g. trace helper on a hot
// hook, decision outside the hook's meaningful range).
type AnalysisWarning = analysis.Warning

// Interval is the analysis value-range domain ([lo,hi] over int64).
type Interval = analysis.Interval

// Analysis toolchain, re-exported.
var (
	// AnalyzeProgram runs the abstract interpreter over a (verified)
	// program and returns its report.
	AnalyzeProgram = analysis.Analyze
	// MaxAnalysisCost is the max cost bound across a report set — the
	// number admission control compares against the hook budget.
	MaxAnalysisCost = analysis.MaxCost
	// ErrCostBudget is returned by Attach when the policy's static cost
	// bound exceeds the hook budget (see SupervisorConfig.HookBudget).
	ErrCostBudget = core.ErrCostBudget
	// ErrInterference is returned by Attach (and Compose) under
	// InterferenceReject when two policies statically write the same map.
	ErrInterference = core.ErrInterference
	// PolicyInterference compares two policies' analysis reports and
	// returns their shared-map conflicts.
	PolicyInterference = analysis.Interference
)

// DefaultHookBudget is the admission budget used when
// SupervisorConfig.HookBudget is zero.
const DefaultHookBudget = core.DefaultHookBudget

// MapConflict is one statically-detected shared-map conflict between
// two policies ("write-write" blocks under InterferenceReject,
// "read-write" warns); InterferenceFinding anchors it to the other
// side's attachment point (see Attachment.Interference).
type (
	MapConflict         = analysis.Conflict
	InterferenceFinding = core.InterferenceFinding
)

// InterferenceMode selects how Attach treats cross-policy map conflicts
// (SupervisorConfig.Interference): warn (default) records findings on
// the attachment, off skips the analysis, reject fails the attach.
type InterferenceMode = core.InterferenceMode

// Interference admission stances.
const (
	InterferenceWarn   = core.InterferenceWarn
	InterferenceOff    = core.InterferenceOff
	InterferenceReject = core.InterferenceReject
)

// FaultSite is one named fault-injection point (e.g. "policy.helper");
// FaultConfig arms it, FaultPlan arms a whole set from one seed — the
// unit of a reproducible chaos run.
type (
	FaultSite   = faultinject.Site
	FaultConfig = faultinject.Config
	FaultPlan   = faultinject.Plan
)

// Fault-injection plane, re-exported.
var (
	// FaultSites lists every registered injection site, sorted by name.
	FaultSites = faultinject.Sites
	// LookupFaultSite finds a site by name ("layer.site").
	LookupFaultSite = faultinject.Lookup
	// DisarmAllFaults deactivates every site (restores production paths
	// to a single nil-check).
	DisarmAllFaults = faultinject.DisarmAll
)
