// Package core implements the Concord framework — the paper's primary
// contribution (§4). It glues the other substrates together along the
// workflow of Figure 1:
//
//  1. a user expresses a lock policy as cBPF programs (or native Go
//     hooks, standing in for the pre-compiled comparison points);
//  2. the framework verifies every program with the policy verifier,
//     which enforces both eBPF-style restrictions and the lock-safety
//     properties (read-only contexts, restricted helpers on the shuffler
//     path, bounded execution);
//  3. verified policies live in the framework's registry (and can be
//     persisted via concordctl — the "BPF file system" step);
//  4. Attach livepatches the target lock's hook table; the returned
//     patch completes once no execution still runs the old hooks;
//  5. runtime safety checks quarantine faulting policies and fall back
//     to the lock's default behaviour.
package core

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/faultinject"
	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/profile"
	"concord/internal/topology"
)

// Framework errors.
var (
	ErrLockExists      = errors.New("concord: lock already registered")
	ErrNoSuchLock      = errors.New("concord: no such lock")
	ErrNotHooked       = errors.New("concord: lock does not support hooks")
	ErrPolicyExists    = errors.New("concord: policy already loaded")
	ErrNoSuchPolicy    = errors.New("concord: no such policy")
	ErrDuplicateKind   = errors.New("concord: policy has two programs of the same kind")
	ErrPolicyConflict  = errors.New("concord: policies conflict")
	ErrNothingAttached = errors.New("concord: nothing attached")
	// ErrCostBudget rejects an Attach whose policy's static worst-case
	// cost bound exceeds the hook budget — admission control from proven
	// bounds instead of quarantine-after-trip.
	ErrCostBudget = errors.New("concord: policy static cost bound exceeds hook budget")
	// ErrInterference rejects an Attach (or Compose) whose policy has a
	// blocking write-write map conflict with another attached policy,
	// when SupervisorConfig.Interference is InterferenceReject.
	ErrInterference = errors.New("concord: policies statically interfere through a shared map")
	// ErrNoOCCTier rejects SetOCC on a lock without an optimistic read
	// tier (only rwsem-family locks carry one).
	ErrNoOCCTier = errors.New("concord: lock has no optimistic read tier")
)

// Policy is a named, verified set of hook programs (and/or a native Go
// hook table used for pre-compiled baselines).
type Policy struct {
	Name     string
	Programs map[policy.Kind]*policy.Program
	Native   *locks.Hooks
	Verify   map[policy.Kind]policy.VerifyStats
	// Analysis holds the static-analysis report per program, computed at
	// load time: cost bounds, value ranges, map footprint, safety facts.
	// Native policies have none (nothing to analyze).
	Analysis map[policy.Kind]*analysis.Report
	// Tiers records the execution-tier decision per program, made at load
	// time from the analysis report (VM vs JIT closures, with the
	// compiled closure when JIT was chosen). Attachments honour it unless
	// a TierMode override forces one tier for ablation.
	Tiers map[policy.Kind]jit.Choice
}

// Tier reports the admitted execution tier for one program kind
// ("vm"/"jit", "" when the policy has no program of that kind).
func (p *Policy) Tier(k policy.Kind) string {
	c, ok := p.Tiers[k]
	if !ok {
		if _, has := p.Programs[k]; has {
			return jit.TierVM.String()
		}
		return ""
	}
	return c.Tier.String()
}

// CostBound returns the policy's static worst-case cost bound in
// nanoseconds — the maximum over its programs' bounds, 0 for native
// policies (unanalyzable, admitted on trust like any Go code).
func (p *Policy) CostBound() int64 { return analysis.MaxCost(p.Analysis) }

// reports flattens the per-kind analysis reports in kind order — the
// deterministic input shape interference comparison wants.
func (p *Policy) reports() []*analysis.Report {
	kinds := make([]policy.Kind, 0, len(p.Analysis))
	for k := range p.Analysis {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := make([]*analysis.Report, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, p.Analysis[k])
	}
	return out
}

// Kinds lists the hook kinds this policy provides (programs and native).
func (p *Policy) Kinds() []policy.Kind {
	var out []policy.Kind
	for k := range p.Programs {
		out = append(out, k)
	}
	if p.Native != nil {
		if p.Native.CmpNode != nil {
			out = append(out, policy.KindCmpNode)
		}
		if p.Native.SkipShuffle != nil {
			out = append(out, policy.KindSkipShuffle)
		}
		if p.Native.ScheduleWaiter != nil {
			out = append(out, policy.KindScheduleWaiter)
		}
	}
	return out
}

// decisionKinds reports which behavioural (non-profiling) hooks the
// policy provides; used for conflict detection when composing.
func (p *Policy) decisionKinds() map[policy.Kind]bool {
	out := make(map[policy.Kind]bool)
	for _, k := range p.Kinds() {
		if !k.IsProfiling() {
			out[k] = true
		}
	}
	return out
}

// Attachment records a policy installed on a lock. Every attachment is
// supervised: runtime faults trip a per-attachment circuit breaker
// whose behaviour is set by the framework's SupervisorConfig.
// TierMode selects how an attachment picks each program's execution
// tier: the admission-time choice, or a forced tier for ablation runs.
type TierMode int32

const (
	// TierAuto honours the per-program admission decision (Policy.Tiers).
	TierAuto TierMode = iota
	// TierForceVM runs every program on the reference interpreter.
	TierForceVM
	// TierForceJIT runs every lowerable program on the JIT tier, even
	// ones admission left on the VM.
	TierForceJIT
)

func (m TierMode) String() string {
	switch m {
	case TierForceVM:
		return "vm"
	case TierForceJIT:
		return "jit"
	default:
		return "auto"
	}
}

type Attachment struct {
	Lock   string
	Policy string

	tierMode atomic.Int32 // TierMode override, livepatch-switched by SetTier

	sup *supervisor
	// interference holds the cross-policy map conflicts detected at
	// attach time (InterferenceWarn mode records them here; Reject mode
	// refuses blocking ones before the attachment exists).
	interference []InterferenceFinding
}

// InterferenceFinding pairs one statically-detected map conflict with
// the other side's attachment point.
type InterferenceFinding struct {
	Lock     string // the other lock
	Policy   string // the policy attached there
	Conflict analysis.Conflict
}

func (f InterferenceFinding) String() string {
	return fmt.Sprintf("with %s on %s: %s", f.Policy, f.Lock, f.Conflict)
}

// Interference returns the cross-policy map conflicts recorded when
// this attachment was admitted (empty under InterferenceOff, or when
// nothing conflicts).
func (a *Attachment) Interference() []InterferenceFinding { return a.interference }

// Wait blocks until the previous hook table has fully drained — the
// livepatch consistency point (of the most recent attach attempt).
func (a *Attachment) Wait() { a.sup.waitPatch() }

// Faults reports how many policy executions have faulted at runtime,
// aggregated across re-attach attempts.
func (a *Attachment) Faults() int64 { return a.sup.faults.Load() }

// Err returns the most recent supervisor trip error, if any.
func (a *Attachment) Err() error { return a.sup.Err() }

// Breaker returns the attachment's circuit-breaker state.
func (a *Attachment) Breaker() BreakerState { return a.sup.State() }

// Retries reports how many re-attach attempts the supervisor has made.
func (a *Attachment) Retries() int { return a.sup.Retries() }

// Quarantined reports whether the policy is permanently detached.
func (a *Attachment) Quarantined() bool { return a.sup.State() == BreakerQuarantined }

// CostBound returns the attached policy's static worst-case cost bound
// in nanoseconds (0 for native policies, which carry no analysis).
func (a *Attachment) CostBound() int64 { return a.sup.costBound }

// TierMode reports the attachment's tier override (TierAuto honours the
// per-program admission decision).
func (a *Attachment) TierMode() TierMode { return TierMode(a.tierMode.Load()) }

// WatchdogBudget reports the latency-watchdog budget this attachment's
// hooks run under: the explicit LatencyBudget when configured, else
// WatchdogScale × the static cost bound (with a floor), else 0 (off).
func (a *Attachment) WatchdogBudget() time.Duration { return a.sup.latencyBudget() }

// lockState is the framework's view of one registered lock.
type lockState struct {
	lock     locks.Lock
	hooked   locks.Hooked
	attached *Attachment
	profiler *profile.Profiler
	// sup supervises the newest attachment on this lock. It outlives
	// st.attached (a quarantined policy clears attached but keeps its
	// supervisor visible in health reporting) and is replaced on the
	// next Attach.
	sup *supervisor
}

// Framework is the Concord control plane. All methods are safe for
// concurrent use; the hot path (lock operations) never takes the
// framework mutex — it only reads hook slots.
type Framework struct {
	topo *topology.Topology

	mu       sync.Mutex
	locks    map[string]*lockState
	policies map[string]*Policy
	// artifacts is the artifact store: what LoadPolicy derived from each
	// distinct program it has verified, by artifactKey.
	artifacts map[string]*artifact
	shadow    *livepatch.ShadowStore
	tel       *obs.Telemetry
	cprof     *profile.Continuous
	flight    *FlightRecorder
	supCfg    SupervisorConfig
}

// New returns an empty framework for the given topology.
func New(topo *topology.Topology) *Framework {
	f := &Framework{
		topo:      topo,
		locks:     make(map[string]*lockState),
		policies:  make(map[string]*Policy),
		artifacts: make(map[string]*artifact),
		shadow:    livepatch.NewShadowStore(),
	}
	// Route lock runtime safety trips into the policy supervisor. The
	// observer is process-global (locks sits below core in the import
	// graph): last framework created wins, as with the telemetry
	// observers.
	locks.SetSafetyObserver(f.handleSafetyTrip)
	return f
}

// SetSupervisorConfig sets the circuit-breaker configuration applied to
// subsequent Attach calls (existing attachments keep theirs). The zero
// value is the original one-shot valve: first fault quarantines.
func (f *Framework) SetSupervisorConfig(cfg SupervisorConfig) {
	f.mu.Lock()
	f.supCfg = cfg
	f.mu.Unlock()
}

// Topology returns the machine topology the framework manages.
func (f *Framework) Topology() *topology.Topology { return f.topo }

// Shadow returns the framework's shadow-variable store.
func (f *Framework) Shadow() *livepatch.ShadowStore { return f.shadow }

// RegisterLock makes a lock visible to the framework (and so to
// policies, profilers, and concordctl). The lock must support hooks.
func (f *Framework) RegisterLock(l locks.Lock) error {
	h, ok := l.(locks.Hooked)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotHooked, l.Name())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.locks[l.Name()]; dup {
		return fmt.Errorf("%w: %s", ErrLockExists, l.Name())
	}
	st := &lockState{lock: l, hooked: h}
	f.locks[l.Name()] = st
	if f.tel != nil {
		f.tel.LocksRegistered.Set(int64(len(f.locks)))
	}
	f.observeSpeculativeReadsLocked(st)
	if f.tel != nil || f.cprof != nil {
		// Instrument immediately so a lock is observable before any
		// policy or profiler touches it.
		h.HookSlot().Replace("telemetry:"+l.Name(), f.effectiveHooks(st, nil, nil))
	}
	return nil
}

// Lock returns a registered lock by name.
func (f *Framework) Lock(name string) (locks.Lock, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.locks[name]
	if !ok {
		return nil, false
	}
	return st.lock, true
}

// LockInfo describes one registered lock for listings.
type LockInfo struct {
	Name     string
	ID       uint64
	Policy   string // attached policy, if any
	Profiled bool
}

// Locks lists registered locks.
func (f *Framework) Locks() []LockInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]LockInfo, 0, len(f.locks))
	for name, st := range f.locks {
		info := LockInfo{Name: name, ID: st.lock.ID(), Profiled: st.profiler != nil}
		if st.attached != nil {
			info.Policy = st.attached.Policy
		}
		out = append(out, info)
	}
	return out
}

// LoadPolicy verifies and registers a set of programs under one policy
// name. Each program kind may appear at most once. Verification failure
// rejects the whole policy (Figure 1 steps 2–4). A program whose bytes
// were loaded before shares that load's analysis report and lowering.
func (f *Framework) LoadPolicy(name string, progs ...*policy.Program) (*Policy, error) {
	p := &Policy{
		Name:     name,
		Programs: make(map[policy.Kind]*policy.Program, len(progs)),
		Verify:   make(map[policy.Kind]policy.VerifyStats, len(progs)),
		Analysis: make(map[policy.Kind]*analysis.Report, len(progs)),
		Tiers:    make(map[policy.Kind]jit.Choice, len(progs)),
	}
	for _, prog := range progs {
		if _, dup := p.Programs[prog.Kind]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateKind, prog.Kind)
		}
		// Verify runs on every load: it is the trust gate, and it marks
		// this program object verified. The store keeps only what is
		// derived from verified bytes.
		stats, err := policy.Verify(prog)
		if err != nil {
			return nil, err
		}
		rep, tier, err := f.admit(prog)
		if err != nil {
			return nil, err
		}
		p.Programs[prog.Kind] = prog
		p.Verify[prog.Kind] = stats
		p.Analysis[prog.Kind] = rep
		p.Tiers[prog.Kind] = tier
	}
	return p, f.addPolicy(p)
}

// LoadNative registers a pre-compiled Go hook table as a policy — the
// baseline the paper compares Concord against.
func (f *Framework) LoadNative(name string, hooks *locks.Hooks) (*Policy, error) {
	p := &Policy{Name: name, Native: hooks}
	return p, f.addPolicy(p)
}

func (f *Framework) addPolicy(p *Policy) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.policies[p.Name]; dup {
		return fmt.Errorf("%w: %s", ErrPolicyExists, p.Name)
	}
	f.policies[p.Name] = p
	if f.tel != nil {
		f.tel.PolicyLoads.Inc()
		f.tel.PoliciesLoaded.Set(int64(len(f.policies)))
	}
	return nil
}

// Policy returns a loaded policy by name.
func (f *Framework) Policy(name string) (*Policy, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.policies[name]
	return p, ok
}

// Policies lists loaded policy names.
func (f *Framework) Policies() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.policies))
	for n := range f.policies {
		out = append(out, n)
	}
	return out
}

// Compose registers a new policy combining two loaded ones. Behavioural
// hooks must not overlap (the conflicting-policies hazard of §6);
// profiling hooks are chained.
func (f *Framework) Compose(name, first, second string) (*Policy, error) {
	f.mu.Lock()
	a, okA := f.policies[first]
	b, okB := f.policies[second]
	mode := f.supCfg.Interference
	f.mu.Unlock()
	if !okA {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPolicy, first)
	}
	if !okB {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPolicy, second)
	}
	ka, kb := a.decisionKinds(), b.decisionKinds()
	for k := range ka {
		if kb[k] {
			return nil, fmt.Errorf("%w: both %s and %s define %s", ErrPolicyConflict, first, second, k)
		}
	}
	// Map interference between the constituents: a composed policy runs
	// both programs on the same hook chain, so write-write sharing makes
	// the later program clobber the earlier one's state on every event.
	if mode == InterferenceReject {
		for _, c := range analysis.Interference(a.reports(), b.reports()) {
			if c.Blocking() {
				return nil, fmt.Errorf("%w: composing %s and %s: %s", ErrInterference, first, second, c)
			}
		}
	}
	p := &Policy{
		Name:     name,
		Programs: make(map[policy.Kind]*policy.Program),
		Verify:   make(map[policy.Kind]policy.VerifyStats),
		Analysis: make(map[policy.Kind]*analysis.Report),
		Tiers:    make(map[policy.Kind]jit.Choice),
	}
	for k, prog := range a.Programs {
		p.Programs[k] = prog
		p.Verify[k] = a.Verify[k]
		p.Analysis[k] = a.Analysis[k]
		p.Tiers[k] = a.Tiers[k]
	}
	for k, prog := range b.Programs {
		if _, dup := p.Programs[k]; dup {
			return nil, fmt.Errorf("%w: both define %s program", ErrPolicyConflict, k)
		}
		p.Programs[k] = prog
		p.Verify[k] = b.Verify[k]
		p.Analysis[k] = b.Analysis[k]
		p.Tiers[k] = b.Tiers[k]
	}
	p.Native = locks.ComposeHooks(a.Native, b.Native)
	return p, f.addPolicy(p)
}

// Attach installs a loaded policy on a registered lock, replacing any
// current policy, and returns the attachment whose Wait method is the
// patch consistency point. If the policy faults at runtime the framework
// detaches it and the lock reverts to default behaviour.
func (f *Framework) Attach(lockName, policyName string) (*Attachment, error) {
	f.mu.Lock()
	st, ok := f.locks[lockName]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchLock, lockName)
	}
	p, ok := f.policies[policyName]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPolicy, policyName)
	}

	// Admission control (Figure 1 step 5, strengthened): the static
	// worst-case cost bound must fit the hook budget, or the attach is
	// rejected up front — before any hook table changes — rather than
	// letting the watchdog quarantine the policy after user-visible harm.
	bound := p.CostBound()
	if budget := f.supCfg.hookBudget(); budget > 0 && bound > int64(budget) {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s bound %dns > budget %dns on %s",
			ErrCostBudget, policyName, bound, int64(budget), lockName)
	}

	// Cross-policy interference admission: compare the candidate's map
	// footprint against every policy attached to another lock. Maps with
	// the same name are treated as one storage, which is conservative:
	// programs are bound to the map objects they were built with, and
	// two loads from source build two (DESIGN §10).
	findings := f.interferenceLocked(lockName, p)
	if f.supCfg.Interference == InterferenceReject {
		for _, fi := range findings {
			if fi.Conflict.Blocking() {
				f.mu.Unlock()
				return nil, fmt.Errorf("%w: %s on %s %s",
					ErrInterference, policyName, lockName, fi)
			}
		}
	}

	// Injected transition abort (livepatch.abort site): the attach fails
	// before any state changes, as a kernel livepatch transition that
	// cannot complete would.
	if faultinject.LivepatchAbort.Enabled() {
		if flt, fire := faultinject.LivepatchAbort.Fire(); fire {
			tel := f.tel
			f.mu.Unlock()
			if tel != nil {
				tel.TransitionAborts.Inc()
			}
			return nil, fmt.Errorf("%w: %s on %s: %v",
				ErrTransitionAborted, policyName, lockName, flt.Err)
		}
	}

	// The runtime safety valve is the attachment's supervisor: faults
	// trip a circuit breaker that swaps in fallback hooks (keeping the
	// profiler and telemetry — only the faulting policy is dropped) and,
	// configuration permitting, re-attaches after backoff.
	sup := &supervisor{
		f: f, st: st, lockName: lockName, policyName: policyName, cfg: f.supCfg,
		costBound: bound,
	}
	att := &Attachment{Lock: lockName, Policy: policyName, sup: sup, interference: findings}
	sup.att = att
	ad := newAdapter(f, sup)
	sup.ad = ad
	prevSup := st.sup
	st.attached = att
	st.sup = sup
	hooks := f.effectiveHooks(st, p, ad)
	tel := f.tel
	if tel != nil {
		f.tel.Attaches.Inc()
	}
	slot := st.hooked.HookSlot()
	f.mu.Unlock()

	if prevSup != nil {
		prevSup.cancel()
	}
	if r, ok := st.hooked.(interface{ ResetSafety() }); ok {
		r.ResetSafety()
	}
	patch := slot.Replace(policyName, hooks)
	if len(p.Analysis) > 0 {
		// The attach patch carries the analysis reports: the installed
		// artifact records the proof it was admitted under.
		patch.SetAnnotation(p.Analysis)
	}
	sup.setPatch(patch)
	sup.watchDrain(patch, tel)
	return att, nil
}

// Detach removes the current policy from a lock (profiling, if active,
// stays). The returned patch's Wait covers the removed hooks.
func (f *Framework) Detach(lockName string) (*livepatch.Patch, error) {
	f.mu.Lock()
	st, ok := f.locks[lockName]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchLock, lockName)
	}
	if st.attached == nil && st.profiler == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNothingAttached, lockName)
	}
	st.attached = nil
	sup := st.sup
	st.sup = nil
	hooks := f.effectiveHooks(st, nil, nil)
	if f.tel != nil {
		f.tel.Detaches.Inc()
	}
	f.mu.Unlock()
	if sup != nil {
		sup.cancel()
	}
	return st.hooked.HookSlot().Replace("detach", hooks), nil
}

// SetTier livepatches a lock's attachment to a new tier mode: TierAuto
// restores the admission-time per-program choices, TierForceVM drops to
// the interpreter on every program (ablation baseline), TierForceJIT
// compiles everything lowerable. The returned patch's Wait is the
// consistency point after which no execution runs the old tier.
func (f *Framework) SetTier(lockName string, mode TierMode) (*livepatch.Patch, error) {
	f.mu.Lock()
	st, ok := f.locks[lockName]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchLock, lockName)
	}
	if st.attached == nil || st.sup == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNothingAttached, lockName)
	}
	st.attached.tierMode.Store(int32(mode))
	p := f.policies[st.attached.Policy]
	hooks := f.effectiveHooks(st, p, st.sup.ad)
	f.mu.Unlock()
	return st.hooked.HookSlot().Replace("tier:"+mode.String(), hooks), nil
}

// SetOCC flips a lock's optimistic read tier control mode (SetTier-style
// ablation): OCCAuto hands promotion back to the attached policy, OCCOff
// forces the pessimistic path, OCCOn forces speculation. The mode lives
// on the lock instance itself, so it survives supervised reattach and
// policy churn; the returned patch's Wait is the consistency point after
// which every hook execution observes the new mode. Works with or
// without an attached policy.
func (f *Framework) SetOCC(lockName string, mode locks.OCCMode) (*livepatch.Patch, error) {
	f.mu.Lock()
	st, ok := f.locks[lockName]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchLock, lockName)
	}
	occ, ok := st.lock.(locks.OCCCapable)
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoOCCTier, lockName)
	}
	occ.OCCSetMode(mode)
	var p *Policy
	var ad *adapter
	if st.attached != nil && st.sup != nil {
		p = f.policies[st.attached.Policy]
		ad = st.sup.ad
	}
	hooks := f.effectiveHooks(st, p, ad)
	f.mu.Unlock()
	return st.hooked.HookSlot().Replace("occ:"+mode.String(), hooks), nil
}

// StartProfiling attaches a profiler to the lock, composed with whatever
// policy is installed — the selective, per-instance profiling of §3.2.
func (f *Framework) StartProfiling(lockName string, prof *profile.Profiler) error {
	f.mu.Lock()
	st, ok := f.locks[lockName]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchLock, lockName)
	}
	st.profiler = prof
	var p *Policy
	var ad *adapter
	if st.attached != nil && st.sup != nil {
		p = f.policies[st.attached.Policy]
		ad = st.sup.ad
	}
	hooks := f.effectiveHooks(st, p, ad)
	f.mu.Unlock()
	st.hooked.HookSlot().Replace("profile:"+lockName, hooks).Wait()
	return nil
}

// StopProfiling removes the profiler from a lock, keeping any policy.
func (f *Framework) StopProfiling(lockName string) error {
	f.mu.Lock()
	st, ok := f.locks[lockName]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchLock, lockName)
	}
	st.profiler = nil
	var p *Policy
	var ad *adapter
	if st.attached != nil && st.sup != nil {
		p = f.policies[st.attached.Policy]
		ad = st.sup.ad
	}
	hooks := f.effectiveHooks(st, p, ad)
	f.mu.Unlock()
	st.hooked.HookSlot().Replace("unprofile:"+lockName, hooks).Wait()
	return nil
}

// interferenceLocked compares a candidate policy's map footprint with
// every policy attached to *other* locks, in sorted lock-name order
// (deterministic findings). A policy never interferes with itself — the
// same policy on many locks shares its maps by design. Called with f.mu
// held.
func (f *Framework) interferenceLocked(lockName string, p *Policy) []InterferenceFinding {
	if f.supCfg.Interference == InterferenceOff || len(p.Analysis) == 0 {
		return nil
	}
	names := make([]string, 0, len(f.locks))
	for name := range f.locks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []InterferenceFinding
	for _, name := range names {
		st := f.locks[name]
		if name == lockName || st.attached == nil {
			continue
		}
		other := f.policies[st.attached.Policy]
		if other == nil || other.Name == p.Name || len(other.Analysis) == 0 {
			continue
		}
		for _, c := range analysis.Interference(p.reports(), other.reports()) {
			out = append(out, InterferenceFinding{Lock: name, Policy: other.Name, Conflict: c})
		}
	}
	return out
}

// matchLocks returns the names of registered locks matching a
// path.Match-style pattern ("*" matches any run of characters), the
// granularity knob of §3.2: one instance ("mmap_sem"), a subsystem
// ("vfs.*"), or everything ("*").
func (f *Framework) matchLocks(pattern string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for name := range f.locks {
		ok, err := path.Match(pattern, name)
		if err != nil {
			return nil, fmt.Errorf("concord: bad lock pattern %q: %w", pattern, err)
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// AttachAll attaches a policy to every registered lock whose name
// matches pattern, returning the attachments made. All-or-nothing is
// not attempted: the error reports the first failing lock, with earlier
// attachments left in place (inspect the returned slice).
func (f *Framework) AttachAll(pattern, policyName string) ([]*Attachment, error) {
	names, err := f.matchLocks(pattern)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: no lock matches %q", ErrNoSuchLock, pattern)
	}
	var out []*Attachment
	for _, name := range names {
		att, err := f.Attach(name, policyName)
		if err != nil {
			return out, err
		}
		out = append(out, att)
	}
	return out, nil
}

// ProfileAll attaches one profiler to every lock matching pattern — the
// "profile all spinlocks in this namespace" use case. It returns the
// matched lock names.
func (f *Framework) ProfileAll(pattern string, prof *profile.Profiler) ([]string, error) {
	names, err := f.matchLocks(pattern)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: no lock matches %q", ErrNoSuchLock, pattern)
	}
	for _, name := range names {
		if err := f.StartProfiling(name, prof); err != nil {
			return names, err
		}
	}
	return names, nil
}

// effectiveHooks builds the hook table for a lock from its policy (if
// any) and profiler (if any). Called with f.mu held.
func (f *Framework) effectiveHooks(st *lockState, p *Policy, ad *adapter) *locks.Hooks {
	var hooks *locks.Hooks
	if p != nil {
		if len(p.Programs) > 0 && ad != nil {
			// The tier mode lives on the attachment so supervisor
			// reattaches and profiling toggles rebuild with the same
			// override in force.
			mode := TierAuto
			if st.attached != nil {
				mode = st.attached.TierMode()
			}
			hooks = ad.hooks(p, mode)
		}
		hooks = locks.ComposeHooks(hooks, p.Native)
		if hooks != nil {
			hooks.Name = p.Name
		}
	}
	if st.profiler != nil {
		hooks = locks.ComposeHooks(hooks, st.profiler.Hooks(st.lock.Name()))
	}
	// The continuous profiler composes after the on-demand profiler: its
	// hooks are sampling-gated and profiling-only, cheap enough to leave
	// in every chain.
	if f.cprof != nil {
		hooks = locks.ComposeHooks(hooks, f.cprof.Hooks(st.lock.Name()))
	}
	// Telemetry composes last: its hooks are profiling-only, so user
	// policies keep every behavioural decision while instrumentation
	// stacks underneath them.
	if f.tel != nil {
		hooks = locks.ComposeHooks(hooks, f.tel.LockHooks(st.lock.Name()))
	}
	return hooks
}
