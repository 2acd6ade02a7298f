package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/clock"
	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/task"
)

// The context layouts the hooks hand their programs.
var (
	cmpL   = policy.LayoutFor(policy.KindCmpNode)
	skipL  = policy.LayoutFor(policy.KindSkipShuffle)
	schedL = policy.LayoutFor(policy.KindScheduleWaiter)
	profL  = policy.LayoutFor(policy.KindLockAcquire)
)

// op codes stored in the profiling context's "op" field.
const (
	opAcquire   = 1
	opContended = 2
	opAcquired  = 3
	opRelease   = 4
)

// The one definition of every context word, by field name: its live
// source. Both tiers read these. A program lowered to a decision tree
// (jit.LowerTree) is evaluated over them directly — each word it compares
// is read where it lives, and no context is built; an interpreted
// program's context holds the words its admitted footprint reads, each
// stored from its source (interp). One table serves cmp_node and
// skip_shuffle, whose layouts share the shuffler's fields; the four
// profiling hooks share one layout and differ in their constant "op" word.
// TestCtxSourcesReadTheirField holds each source to the field it names.
var (
	shuffleSrc = map[string]func(*locks.ShuffleInfo) uint64{
		"lock_id":       func(i *locks.ShuffleInfo) uint64 { return i.LockID },
		"queue_len":     func(i *locks.ShuffleInfo) uint64 { return uint64(i.QueueLen) },
		"shuffle_round": func(i *locks.ShuffleInfo) uint64 { return uint64(i.Round) },
		"now_ns":        func(i *locks.ShuffleInfo) uint64 { return uint64(i.NowNS) },
		"batch":         func(i *locks.ShuffleInfo) uint64 { return uint64(i.Batch) },

		"shuffler_task_id":   func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.ID()) },
		"shuffler_cpu":       func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.CPU()) },
		"shuffler_socket":    func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.Socket()) },
		"shuffler_prio":      func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.Priority()) },
		"shuffler_weight":    func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.Weight()) },
		"shuffler_cs_avg":    func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.CSAverage()) },
		"shuffler_wait_ns":   func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.WaitNS(i.NowNS)) },
		"shuffler_held_mask": func(i *locks.ShuffleInfo) uint64 { return i.Shuffler.Task.HeldMask() },
		"shuffler_speed_pct": func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.Speed() * 100) },
		"shuffler_quota":     func(i *locks.ShuffleInfo) uint64 { return uint64(i.Shuffler.Task.Quota()) },
		"shuffler_preempted": func(i *locks.ShuffleInfo) uint64 { return b2u(i.Shuffler.Task.Preempted()) },

		"curr_task_id":   func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.ID()) },
		"curr_cpu":       func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.CPU()) },
		"curr_socket":    func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.Socket()) },
		"curr_prio":      func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.Priority()) },
		"curr_weight":    func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.Weight()) },
		"curr_cs_avg":    func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.CSAverage()) },
		"curr_wait_ns":   func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.WaitNS(i.NowNS)) },
		"curr_held_mask": func(i *locks.ShuffleInfo) uint64 { return i.Curr.Task.HeldMask() },
		"curr_speed_pct": func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.Speed() * 100) },
		"curr_quota":     func(i *locks.ShuffleInfo) uint64 { return uint64(i.Curr.Task.Quota()) },
		"curr_preempted": func(i *locks.ShuffleInfo) uint64 { return b2u(i.Curr.Task.Preempted()) },
	}
	waitSrc = map[string]func(*locks.WaitInfo) uint64{
		"lock_id":        func(i *locks.WaitInfo) uint64 { return i.LockID },
		"queue_len":      func(i *locks.WaitInfo) uint64 { return uint64(i.QueueLen) },
		"now_ns":         func(i *locks.WaitInfo) uint64 { return uint64(i.NowNS) },
		"curr_task_id":   func(i *locks.WaitInfo) uint64 { return uint64(i.Curr.Task.ID()) },
		"curr_cpu":       func(i *locks.WaitInfo) uint64 { return uint64(i.Curr.Task.CPU()) },
		"curr_socket":    func(i *locks.WaitInfo) uint64 { return uint64(i.Curr.Task.Socket()) },
		"curr_prio":      func(i *locks.WaitInfo) uint64 { return uint64(i.Curr.Task.Priority()) },
		"curr_wait_ns":   func(i *locks.WaitInfo) uint64 { return uint64(i.Curr.WaitNS(i.NowNS)) },
		"curr_quota":     func(i *locks.WaitInfo) uint64 { return uint64(i.Curr.Task.Quota()) },
		"curr_preempted": func(i *locks.WaitInfo) uint64 { return b2u(i.Curr.Task.Preempted()) },
		"waiters_ahead":  func(i *locks.WaitInfo) uint64 { return uint64(i.WaitersAhead) },
		"holder_cs_avg":  func(i *locks.WaitInfo) uint64 { return uint64(i.HolderCSAvg) },
		"spin_ns":        func(i *locks.WaitInfo) uint64 { return uint64(i.SpinNS) },
	}
	eventSrc = map[string]func(*locks.Event) uint64{
		"lock_id":   func(ev *locks.Event) uint64 { return ev.LockID },
		"task_id":   eventTask(func(t *task.T) uint64 { return uint64(t.ID()) }),
		"cpu":       eventTask(func(t *task.T) uint64 { return uint64(t.CPU()) }),
		"socket":    eventTask(func(t *task.T) uint64 { return uint64(t.Socket()) }),
		"prio":      eventTask(func(t *task.T) uint64 { return uint64(t.Priority()) }),
		"now_ns":    func(ev *locks.Event) uint64 { return uint64(ev.NowNS) },
		"wait_ns":   func(ev *locks.Event) uint64 { return uint64(ev.WaitNS) },
		"hold_ns":   func(ev *locks.Event) uint64 { return uint64(ev.HoldNS) },
		"queue_len": func(ev *locks.Event) uint64 { return uint64(ev.QueueLen) },
		"reader":    func(ev *locks.Event) uint64 { return b2u(ev.Reader) },
	}

	cmpSrc   = slotSources(cmpL, shuffleSrc)
	skipSrc  = slotSources(skipL, shuffleSrc)
	schedSrc = slotSources(schedL, waitSrc)
	// profSrc[op] is the profiling layout's sources for the hook whose
	// context carries op.
	profSrc = func() (src [opRelease + 1][]func(*locks.Event) uint64) {
		for op := uint64(opAcquire); op <= opRelease; op++ {
			byName := maps.Clone(eventSrc)
			byName["op"] = func(*locks.Event) uint64 { return op }
			src[op] = slotSources(profL, byName)
		}
		return src
	}()
)

// The CPU a tree's map calls run on: the CPU of the task whose scratch the
// general path would fire on (taskEnv.CPU), read at the call. A profiling
// event without a task panics here as it does there, inside the same exec.
var (
	shufflerCPU = func(i *locks.ShuffleInfo) int { return i.Shuffler.Task.CPU() }
	waiterCPU   = func(i *locks.WaitInfo) int { return i.Curr.Task.CPU() }
	eventCPU    = func(ev *locks.Event) int { return ev.Task.CPU() }
)

// eventTask is the source of a task field of an event: 0 for an event
// without a task.
func eventTask(f func(*task.T) uint64) func(*locks.Event) uint64 {
	return func(ev *locks.Event) uint64 {
		if ev.Task == nil {
			return 0
		}
		return f(ev.Task)
	}
}

// slotSources orders byName's sources by l's slots. A field without one
// is left nil; a tree that loads it faults (and its policy detaches)
// rather than read a made-up value.
func slotSources[T any](l *policy.CtxLayout, byName map[string]func(T) uint64) []func(T) uint64 {
	src := make([]func(T) uint64, len(l.Fields))
	for i, f := range l.Fields {
		src[i] = byName[f.Name]
	}
	return src
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// taskEnv adapts a task to the policy VM's execution environment. It
// lives in its task's fireScratch: t and the Rand state belong to the
// task (seeded once from its ID, so a task that fires two attachments'
// hooks draws one stream rather than replaying it), ad is whichever
// attachment's hook is firing.
type taskEnv struct {
	t    *task.T
	seed uint64
	ad   *adapter
}

// fireScratch is what one hook fire hands the policy by address: the
// context words, the context and the execution environment. A value whose
// address crosses the indirect CompiledFn call is heap-allocated, so the
// three are allocated once per task and parked in the task's fire-scratch
// slot between fires — the kernel hands a program a pointer to a context
// that already exists; this is the userspace equivalent.
type fireScratch struct {
	words [32]uint64 // the widest layout (cmp_node) has 27 fields
	ctx   policy.Ctx
	env   taskEnv
}

// takeFire takes t's scratch (allocating it on the task's first fire, on
// a reentrant fire, or for an event without a task) and readies it for
// one fire of a hook with layout l on attachment a. The returned context
// words are zeroed, so a word the fire does not store reads 0, never a
// value another fire left. The caller hands the scratch back with putFire.
func (a *adapter) takeFire(t *task.T, l *policy.CtxLayout) (*fireScratch, []uint64) {
	var sc *fireScratch
	if t != nil {
		sc, _ = t.TakeFireScratch().(*fireScratch)
	}
	if sc == nil {
		sc = &fireScratch{env: taskEnv{t: t}}
		if t != nil {
			sc.env.seed = uint64(t.ID())
		}
	}
	sc.env.ad = a
	w := sc.words[:len(l.Fields)]
	clear(w)
	sc.ctx = policy.Ctx{Layout: l, Words: w}
	return sc, w
}

func putFire(t *task.T, sc *fireScratch) {
	if t != nil {
		t.PutFireScratch(sc)
	}
}

// cellsOf is t's counter-cell cache, made on its first tree fire: a tree
// run counts into its firing task's cell of the program. An event without
// a task has none, and counts into the program's own counters.
func cellsOf(t *task.T) *policy.ExecCells {
	if t == nil {
		return nil
	}
	if c, ok := t.ExecCells().(*policy.ExecCells); ok {
		return c
	}
	return newCells(t)
}

// newCells makes t's cache, on its first tree fire.
func newCells(t *task.T) *policy.ExecCells {
	c := policy.NewExecCells(t.ID())
	t.SetExecCells(c)
	return c
}

func (e *taskEnv) NowNS() int64        { return clock.NowNS() }
func (e *taskEnv) CPU() int            { return e.t.CPU() }
func (e *taskEnv) NUMANode() int       { return e.t.Socket() }
func (e *taskEnv) TaskID() int64       { return e.t.ID() }
func (e *taskEnv) TaskPriority() int64 { return e.t.Priority() }
func (e *taskEnv) Rand() uint64 {
	e.seed += 0x9e3779b97f4a7c15
	z := e.seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (e *taskEnv) Trace(uint64) {}

// LockStat and OCCSet are the firing attachment's (adapter.LockStat,
// adapter.OCCSet): the interpreter finds them on its Env.
func (e *taskEnv) LockStat(field uint64) uint64 { return e.ad.LockStat(field) }
func (e *taskEnv) OCCSet(on uint64) uint64      { return e.ad.OCCSet(on) }

// adapter turns a set of verified programs into a locks.Hooks table.
// One adapter backs one attach attempt; it owns fault bookkeeping.
// faultFn fires at most once per adapter (the supervisor trip), so
// concurrent faulting hooks collapse to exactly one detach.
type adapter struct {
	policyName    string
	faultFn       func(err error) // invoked once on the first policy fault
	countFault    func()          // supervisor/telemetry hook, every fault
	latencyBudget time.Duration   // >0 arms the latency watchdog

	faults    atomic.Int64
	faultOnce sync.Once
	lastErr   atomic.Pointer[error]

	// lockStats backs the lock_stats_read helper for this attachment's
	// lock (nil: helper reads 0). Set at attach time and swapped when
	// continuous profiling is enabled or disabled afterwards.
	lockStats atomic.Pointer[func(uint64) uint64]

	// occSet backs the occ_set helper for this attachment's lock (nil:
	// helper reports no change). Set at attach time when the lock has an
	// optimistic read tier.
	occSet atomic.Pointer[func(uint64) uint64]
}

// setLockStats installs (or clears, with nil) the lock_stats_read
// backing closure; hooks observe the swap on their next helper call.
func (a *adapter) setLockStats(fn func(uint64) uint64) {
	if fn == nil {
		a.lockStats.Store(nil)
		return
	}
	a.lockStats.Store(&fn)
}

// setOCCSet installs (or clears, with nil) the occ_set backing closure.
func (a *adapter) setOCCSet(fn func(uint64) uint64) {
	if fn == nil {
		a.occSet.Store(nil)
		return
	}
	a.occSet.Store(&fn)
}

// LockStat implements policy.LockStatReader for both tiers (a tree is
// handed the adapter, the interpreter its taskEnv): it reads the hooked
// lock's last completed profiling window through the continuous profiler.
// The closure is swapped atomically so continuous profiling can be enabled
// or disabled while the policy runs.
func (a *adapter) LockStat(field uint64) uint64 {
	if fp := a.lockStats.Load(); fp != nil {
		return (*fp)(field)
	}
	return 0
}

// OCCSet implements policy.OCCSetter for both tiers: it routes the occ_set
// helper's promotion/demotion request to the attached lock's optimistic
// tier. Like lockStats, the closure is swapped atomically — attachments to
// locks without the tier leave it nil and the helper reports no change.
func (a *adapter) OCCSet(on uint64) uint64 {
	if fp := a.occSet.Load(); fp != nil {
		return (*fp)(on)
	}
	return 0
}

// Faults reports how many policy executions faulted.
func (a *adapter) Faults() int64 { return a.faults.Load() }

// Err returns the first fault, if any.
func (a *adapter) Err() error {
	if p := a.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (a *adapter) fault(err error) {
	a.faults.Add(1)
	if a.countFault != nil {
		a.countFault()
	}
	a.lastErr.CompareAndSwap(nil, &err)
	a.faultOnce.Do(func() {
		if a.faultFn != nil {
			a.faultFn(err)
		}
	})
}

// exec runs one hook fire under the attachment's containment, whichever
// lowering run dispatches into: a panicking hook (injected or real)
// becomes a policy fault instead of unwinding into the lock algorithm, a
// run over the latency budget is a fault, and so is a run that returns an
// error. The general path hands run the context and environment it
// marshalled; a decision tree reads its words at their sources and is
// handed neither.
func (a *adapter) exec(run policy.CompiledFn, ctx *policy.Ctx, env policy.Env) (ret uint64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			a.fault(fmt.Errorf("%w: %v", ErrHookPanic, r))
			ret, ok = 0, false
		}
	}()
	if faultinject.CoreHookPanic.Enabled() {
		if flt, fire := faultinject.CoreHookPanic.Fire(); fire {
			panic(flt.Err)
		}
	}
	var start time.Time
	if a.latencyBudget > 0 {
		start = time.Now()
	}
	// Injected hook latency lands inside the watchdog's measurement
	// window — exactly how a slow policy would present.
	if faultinject.PolicyLatency.Enabled() {
		if flt, fire := faultinject.PolicyLatency.Fire(); fire && flt.Delay > 0 {
			time.Sleep(flt.Delay)
		}
	}
	ret, err := run(ctx, env)
	if a.latencyBudget > 0 {
		if el := time.Since(start); el > a.latencyBudget {
			a.fault(fmt.Errorf("%w: hook ran %v (budget %v)",
				ErrHookLatency, el, a.latencyBudget))
		}
	}
	if err != nil {
		a.fault(err)
		return 0, false
	}
	return ret, true
}

// waitDecision maps a schedule_waiter program's result onto the lock's
// wait decisions; a faulted run and an out-of-range value keep the
// built-in behaviour.
func waitDecision(ret uint64, ok bool) int {
	if !ok {
		return locks.WaitDefault
	}
	switch ret {
	case policy.WaiterKeepSpinning:
		return locks.WaitKeepSpinning
	case policy.WaiterParkNow:
		return locks.WaitParkNow
	default:
		return locks.WaitDefault
	}
}

// interp is the interpreter's fire of p on a hook whose argument is a T:
// it takes the firing task's scratch, stores the context words p's
// admitted footprint (rep.CtxReads) names, each read from its source in
// src, and runs p under exec. The (slot, source) pairs are resolved here,
// once per table. p never loads a word outside its footprint; takeFire
// zeroes those, so none holds another fire's value. A field without a
// source reads 0 too.
func interp[T any](a *adapter, p *policy.Program, rep *analysis.Report,
	src []func(T) uint64, taskOf func(T) *task.T) func(T) (uint64, bool) {
	l := policy.LayoutFor(p.Kind)
	type word struct {
		slot int
		read func(T) uint64
	}
	var words []word
	for _, name := range rep.CtxReads {
		if i := l.Slot(name); src[i] != nil {
			words = append(words, word{i, src[i]})
		}
	}
	run := func(ctx *policy.Ctx, env policy.Env) (uint64, error) { return policy.Exec(p, ctx, env) }
	return func(arg T) (uint64, bool) {
		t := taskOf(arg)
		sc, w := a.takeFire(t, l)
		for _, wd := range words {
			w[wd.slot] = wd.read(arg)
		}
		ret, ok := a.exec(run, &sc.ctx, &sc.env)
		putFire(t, sc)
		return ret, ok
	}
}

// hooks builds the lock hook table executing the policy's programs on
// the tier chosen for each at admission (§4.2's "translated into native
// code"): JIT-tier programs run as their decision tree, VM-tier ones on the
// reference interpreter. mode overrides the per-program choice for
// ablation (force-VM baseline). The programs are the framework's own
// copies, whose bytes are the ones admitted, so what admission lowered and
// reported is what runs.
//
// A program served a tree — a decision or a profiling hook — is evaluated
// where its inputs live: exec around jit.RunTree over the layout's sources,
// with the adapter behind its lock_stats_read and occ_set calls — no
// scratch, no marshal, no machine. An interpreted program runs on its
// task's fireScratch, filled from the same sources (interp). Neither
// allocates in steady state.
func (a *adapter) hooks(pol *Policy, mode TierMode) *locks.Hooks {
	progs := pol.Programs
	h := &locks.Hooks{Name: a.policyName}

	// tree is kind k's lowering, resolved once while the table is built so
	// a fire dispatches straight into what it will run: nil for the
	// interpreter.
	tree := func(k policy.Kind) *jit.Tree {
		if mode == TierForceVM {
			return nil
		}
		return pol.Tiers[k].Tree() // absent: the zero Choice, VM tier
	}

	// cmp_node and skip_shuffle are the same hook over different layouts.
	shuffleHook := func(k policy.Kind, src []func(*locks.ShuffleInfo) uint64) func(*locks.ShuffleInfo) bool {
		p, ok := progs[k]
		if !ok {
			return nil
		}
		if t := tree(k); t != nil {
			return func(info *locks.ShuffleInfo) bool {
				ret, ok := a.exec(func(*policy.Ctx, policy.Env) (uint64, error) {
					return jit.RunTree(t, p, cellsOf(info.Shuffler.Task), src, shufflerCPU, a, info)
				}, nil, nil)
				return ok && ret != 0
			}
		}
		fire := interp(a, p, pol.Analysis[k], src, func(i *locks.ShuffleInfo) *task.T { return i.Shuffler.Task })
		return func(info *locks.ShuffleInfo) bool {
			ret, ok := fire(info)
			return ok && ret != 0
		}
	}
	h.CmpNode = shuffleHook(policy.KindCmpNode, cmpSrc)
	h.SkipShuffle = shuffleHook(policy.KindSkipShuffle, skipSrc)

	if p, ok := progs[policy.KindScheduleWaiter]; ok {
		if t := tree(policy.KindScheduleWaiter); t != nil {
			h.ScheduleWaiter = func(info *locks.WaitInfo) int {
				return waitDecision(a.exec(func(*policy.Ctx, policy.Env) (uint64, error) {
					return jit.RunTree(t, p, cellsOf(info.Curr.Task), schedSrc, waiterCPU, a, info)
				}, nil, nil))
			}
		} else {
			fire := interp(a, p, pol.Analysis[policy.KindScheduleWaiter], schedSrc,
				func(i *locks.WaitInfo) *task.T { return i.Curr.Task })
			h.ScheduleWaiter = func(info *locks.WaitInfo) int { return waitDecision(fire(info)) }
		}
	}

	profHook := func(k policy.Kind, op uint64) func(ev *locks.Event) {
		p, ok := progs[k]
		if !ok {
			return nil
		}
		src := profSrc[op]
		if t := tree(k); t != nil {
			return func(ev *locks.Event) {
				a.exec(func(*policy.Ctx, policy.Env) (uint64, error) {
					return jit.RunTree(t, p, cellsOf(ev.Task), src, eventCPU, a, ev)
				}, nil, nil)
			}
		}
		fire := interp(a, p, pol.Analysis[k], src, func(ev *locks.Event) *task.T { return ev.Task })
		return func(ev *locks.Event) { fire(ev) }
	}
	h.OnAcquire = profHook(policy.KindLockAcquire, opAcquire)
	h.OnContended = profHook(policy.KindLockContended, opContended)
	h.OnAcquired = profHook(policy.KindLockAcquired, opAcquired)
	h.OnRelease = profHook(policy.KindLockRelease, opRelease)

	// lock_acquired's stamp is read only for a program that loads now_ns,
	// as the admitted program's footprint says.
	if rep := pol.Analysis[policy.KindLockAcquired]; rep != nil {
		h.AcquiredNoNow = !slices.Contains(rep.CtxReads, "now_ns")
	}
	return h
}
