package main

import (
	"fmt"
	"os"
	"time"

	"concord/internal/core"
	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
)

// shippedPolicies are the ten policies/*.pol files policy_churn cycles
// through. The list is fixed here so that adding an eleventh policy to the
// repository does not silently change the workload.
var shippedPolicies = []string{
	"amp", "bounded-shuffle", "contention-gate", "inheritance", "numa",
	"occ-gate", "priority", "profile-waits", "vcpu", "wait-gate",
}

// lifeStats accumulates the timings of policy lifecycles. One goroutine
// writes it (set-up, or the controller).
type lifeStats struct {
	toAttached  hist // due → att.Wait() returned: attach_p50_us
	load        hist // core.LoadPolicy
	attach      hist // core.Attach
	detach      hist // core.Detach
	drain       hist // both Patch.Wait calls of a lifecycle
	done, fails uint64
	late        uint64 // started more than lateAfter behind schedule
	faults      int64  // policy faults the attachments counted
	trips       uint64 // attachments whose breaker was not closed after Wait
	firstErr    error
}

func (s *lifeStats) fail(err error) {
	s.fails++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// lifecycle runs one policy through the control plane on a lock that may
// be carrying traffic: source → CompileAndVerify → LoadPolicy under a
// unique name → Attach → Wait → Detach → Wait, checking after each step
// what a user would check. due is when it was supposed to start; latency
// is counted from there, so a stalled controller shows up in the numbers
// of the lifecycles it delayed.
func (e *env) lifecycle(l locks.Lock, file string, seq int, due time.Time, st *lifeStats, tt *taskTrace) {
	st.done++
	if tt != nil && tt.beginOp("lifecycle", false) {
		defer tt.endOp()
	} else {
		tt = nil
	}
	step := func(name string, h *hist, f func()) {
		if tt != nil {
			tt.begin(name)
		}
		t0 := time.Now()
		f()
		if h != nil {
			h.record(int64(time.Since(t0)))
		}
		if tt != nil {
			tt.end()
		}
	}

	src, err := os.ReadFile(e.policyPath(file))
	if err != nil {
		st.fail(err)
		return
	}
	var unit *policydsl.CompiledUnit
	step("policydsl.compile", nil, func() { unit, err = policydsl.CompileAndVerify(string(src)) })
	if err != nil {
		st.fail(fmt.Errorf("%s: %w", file, err))
		return
	}
	name := fmt.Sprintf("%s#%d", file, seq)
	step("core.LoadPolicy", &st.load, func() { _, err = e.fw.LoadPolicy(name, unit.Programs...) })
	if err != nil {
		st.fail(fmt.Errorf("%s: %w", file, err))
		return
	}
	slot := slotOf(l)
	base := slot.Peek()
	var att *core.Attachment
	step("core.Attach", &st.attach, func() { att, err = e.fw.Attach(l.Name(), name) })
	if err != nil {
		st.fail(fmt.Errorf("%s: %w", file, err))
		return
	}
	step("livepatch.Wait", &st.drain, att.Wait)
	st.toAttached.record(int64(time.Since(due)))

	if slot.Peek() == base {
		st.fail(fmt.Errorf("%s: attach left the hook table unchanged", file))
	}

	var patch *livepatch.Patch
	step("core.Detach", &st.detach, func() { patch, err = e.fw.Detach(l.Name()) })
	if err != nil {
		st.fail(fmt.Errorf("%s: detach: %w", file, err))
		return
	}
	step("livepatch.Wait", &st.drain, patch.Wait)

	// The attachment is judged after it has carried whatever traffic the
	// lock had while it was on.
	st.faults += att.Faults()
	if att.Breaker() != core.BreakerClosed {
		st.trips++
	}
	switch {
	case att.Err() != nil:
		st.fail(fmt.Errorf("%s: attachment tripped: %w", file, att.Err()))
	case att.Breaker() != core.BreakerClosed:
		st.fail(fmt.Errorf("%s: breaker %s", file, att.Breaker()))
	case slot.Peek() != base:
		st.fail(fmt.Errorf("%s: base hook table not restored after detach", file))
	}

	if tt != nil {
		probeSiblings(string(src), tt)
	}
}

// probeSiblings times the three stages LoadPolicy runs internally —
// verify, analyze, JIT-compile — on a second compilation of the same
// source, as sibling spans of the lifecycle that just ran: from outside
// LoadPolicy they cannot be seen where they happen.
func probeSiblings(src string, tt *taskTrace) {
	tt.begin("policydsl.compile.probe")
	unit, err := policydsl.Compile(src)
	tt.end()
	if err != nil {
		return
	}
	for _, p := range unit.Programs {
		tt.begin("policy.Verify")
		_, err := policy.Verify(p)
		tt.end()
		if err != nil {
			continue
		}
		tt.begin("analysis.Analyze")
		_, _ = analysis.Analyze(p) // timing only; LoadPolicy already reported any error
		tt.end()
		tt.begin("jit.Compile")
		_, _ = jit.Compile(p) // an unsupported program is a tier decision, not a failure
		tt.end()
	}
}

// scratchLifecycles runs set-up's lifecycles on a lock nothing else uses,
// cycling through files: the workload's own policy, or for policy_churn
// all ten in the run's order, so that a policy the framework no longer
// admits fails set-up and not the measured phase. Unless the workload has
// a controller of its own, it leaves behind one that keeps sampling the
// same lifecycle on the same lock while the workload runs.
func (e *env) scratchLifecycles(scratch locks.Lock, files ...string) error {
	if err := e.fw.RegisterLock(scratch); err != nil {
		return err
	}
	var tt *taskTrace
	if e.tr != nil {
		tt = e.tr.add(nil)
		e.tr.on.Store(true)
		defer e.tr.on.Store(false)
	}
	for i := 0; i < setupLifecycles; i++ {
		e.lifecycle(scratch, files[i%len(files)], -1-i, time.Now(), &e.setupLife, tt)
	}
	if st := &e.setupLife; st.fails != 0 {
		return fmt.Errorf("%d of %d set-up lifecycles failed, first: %w", st.fails, st.done, st.firstErr)
	}
	if e.ctl == nil {
		e.ctl = &controller{e: e, lock: scratch, files: files, rate: sampleRate, tt: tt}
	}
	return nil
}

// controller issues policy lifecycles while the workers run. There are two
// of them.
//
// policy_churn's is the workload: an open loop on the traffic lock that
// starts one lifecycle every 1/churnRate seconds whether or not the
// previous one finished on time (they run one at a time, so a slow one
// delays the next, and the delay is charged to the delayed one), waking by
// spinning so that it starts on the microsecond.
//
// Every other workload has a sampler: sampleRate lifecycles a second of the
// workload's own policy on the scratch lock, each timed from its actual
// start. It is there because attach latency measured only during set-up
// — twenty milliseconds on an otherwise idle process — saw one state of
// the host and differed by a quarter from run to run; spread over the
// measured phase it sees them all, as policy_churn's does. It costs the
// workers a thousandth of a processor.
type controller struct {
	e     *env
	lock  locks.Lock
	files []string
	rate  int
	open  bool // open loop: latency counts from the due time, and the wait spins
	tt    *taskTrace
	seq   int
}

func (c *controller) run(start time.Time, p plan) {
	period := time.Second / time.Duration(c.rate)
	for k := 0; ; k++ {
		since := time.Duration(k) * period
		if since >= p.total() {
			return
		}
		due := start.Add(since)
		st := &c.e.life
		if since < p.warm {
			st = &c.e.warmLife // checked, not timed into the result
		}
		if c.open {
			spinUntil(due)
			if time.Since(due) > lateAfter {
				st.late++
			}
		} else {
			sleepUntil(due)
			due = time.Now()
		}
		c.e.lifecycle(c.lock, c.files[c.seq%len(c.files)], c.seq, due, st, c.tt)
		c.seq++
	}
}
