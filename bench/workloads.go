package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"concord/internal/locks"
	"concord/internal/profile"
	"concord/internal/task"
	"concord/internal/workloads"
)

// workloadInfo names a workload and the builder that sets it up. Names are
// fixed: BENCHMARK.json and later issues cite them.
type workloadInfo struct {
	name  string
	why   string
	setup func(e *env, threads int) error
}

var workloadTable = []workloadInfo{
	{"solo_nohooks", "uncontended ShflLock fast path with nothing attached: what every user pays before any policy", setupSolo},
	{"ht_queue_numa", "Figure 2(c): global-lock hashtable, 8 queued tasks, numa.pol attached; shuffler, ctx marshal and JIT exec dominate", setupQueueNUMA},
	{"ht_pair_profiled", "same hashtable, P tasks with work between ops, profile-waits.pol: a map-helper hook fires on every acquisition, fast path included", setupPairProfiled},
	{"rw_occ_gate", "RWSem with continuous profiler and occ-gate.pol: optimistic reads beside 1-in-64 writers", setupRWOCC},
	{"policy_churn", "control plane under live traffic: 200 policy lifecycles/s, open loop, over the ten shipped policies", setupChurn},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// setup builds one workload. It is what setup_s times.
func setup(workload string, seed uint64, root string, threads int, tr *tracer) (*env, error) {
	info, ok := findWorkload(workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	e := newEnv(workload, seed, root, tr)
	if err := info.setup(e, threads); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", workload, err)
	}
	e.installShim()
	return e, nil
}

// setupSolo: P tasks, each on its own registered ShflLock, nothing
// attached. Set-up's lifecycles use numa.pol on the scratch lock — the
// workload has no policy of its own, and numa is the smallest shipped one.
func setupSolo(e *env, threads int) error {
	counters := make([]paddedCounter, threads)
	for i, cpu := range placement(e.seed, e.topo, threads, 1) {
		l, err := e.register(locks.NewShflLock(fmt.Sprintf("solo-%d", i)))
		if err != nil {
			return err
		}
		t := task.NewOnCPU(e.topo, cpu)
		e.addWorker(t, outSpin, lock2Op(l, t, &counters[i].n))
	}
	e.check = func() (bad uint64) {
		for i, w := range e.workers {
			if counters[i].n != w.total {
				bad++
			}
		}
		return bad
	}
	e.valid = func() error {
		for _, l := range e.locks {
			if h := slotOf(l).Peek(); h != nil && e.tr == nil {
				return fmt.Errorf("%s has hook table %q attached", l.Name(), h.Name)
			}
		}
		return nil
	}
	return e.scratchLifecycles(locks.NewShflLock("scratch"), "numa")
}

type paddedCounter struct {
	n uint64
	_ cacheLine
}

// htModel is one task's private copy of what its key range should hold.
type htModel struct {
	base    uint64
	vals    []uint64
	present []bool
}

// setupHashTable builds the Figure 2(c) table on one ShflLock with a
// shipped policy attached, and one worker per virtual CPU in cpus.
func setupHashTable(e *env, cpus []int, policyName string, outside int) (*locks.ShflLock, error) {
	raw := locks.NewShflLock("ht")
	l, err := e.register(raw)
	if err != nil {
		return nil, err
	}
	if err := e.attach(raw, policyName); err != nil {
		return nil, err
	}
	e.addHTWorkers(l, cpus, outside)
	return raw, e.scratchLifecycles(locks.NewShflLock("scratch"), policyName)
}

// addHTWorkers builds the table behind l, one worker per virtual CPU, and
// the final comparison of the table with the workers' models.
func (e *env) addHTWorkers(l locks.Lock, cpus []int, outside int) {
	tbl := workloads.NewHashTable(l, htTableOrder)
	models := make([]*htModel, len(cpus))
	for i, cpu := range cpus {
		t := task.NewOnCPU(e.topo, cpu)
		st := newHTStream(e.seed, i, len(cpus))
		m := &htModel{base: st.base, vals: make([]uint64, st.n), present: make([]bool, st.n)}
		// Half the range starts present, so Gets hit and miss from the
		// first op on.
		for k := uint64(0); k < st.n; k += 2 {
			tbl.Put(t, st.base+k, k)
			m.vals[k], m.present[k] = k, true
		}
		models[i] = m
		e.addWorker(t, outside, htWorkerOp(tbl, t, st, m))
	}
	e.check = func() (bad uint64) {
		for i, m := range models {
			t := e.workers[i].t
			for k := range m.vals {
				v, ok := tbl.Get(t, m.base+uint64(k))
				if ok != m.present[k] || (ok && v != m.vals[k]) {
					bad++
				}
			}
		}
		return bad
	}
}

// htWorkerOp issues the task's next generated op and checks its result against
// the task's model. Like RunHashTable it yields every 64 ops, so with more
// tasks than threads the queue keeps turning over.
func htWorkerOp(tbl *workloads.HashTable, t *task.T, st *htStream, m *htModel) func() bool {
	return func() bool {
		op := st.next()
		if st.sequence&63 == 0 {
			runtime.Gosched()
		}
		k := op.key - m.base
		switch op.kind {
		case htGet:
			v, ok := tbl.Get(t, op.key)
			return ok == m.present[k] && (!ok || v == m.vals[k])
		case htPut:
			tbl.Put(t, op.key, op.val)
			m.vals[k], m.present[k] = op.val, true
			return true
		default:
			was := m.present[k]
			m.present[k] = false
			return tbl.Delete(t, op.key) == was
		}
	}
}

// setupQueueNUMA: eight tasks, two per socket on four sockets, on P
// threads. The shuffler compares waiters only when at least two are
// queued, so queue depth — not core count — is this workload's input.
func setupQueueNUMA(e *env, _ int) error {
	l, err := setupHashTable(e, placement(e.seed, e.topo, queueTasks, queuePerSocket), "numa", 0)
	if err != nil {
		return err
	}
	_, moves0, _ := l.ShuffleStats()
	e.valid = func() error {
		if err := e.attachmentHealthy(); err != nil {
			return err
		}
		if h := slotOf(l).Peek(); h == nil || h.CmpNode == nil {
			return errors.New("no cmp_node hook installed at the end")
		}
		if _, moves, _ := l.ShuffleStats(); moves == moves0 {
			return errors.New("the shuffler moved no waiter: numa.pol was not in effect")
		}
		return nil
	}
	return nil
}

// setupPairProfiled: P tasks, one per socket, with a profiling policy
// whose hooks run on every acquisition, fast path included. Between ops a
// task does pairOutsideSpin units of private work, about four times the
// locked part, so that most acquisitions do take the fast path. Without it the
// tasks hand the lock back and forth without pause, the median op is a
// queued one, and throughput is set by how long a cache line takes to
// cross between two vCPUs — which on the host this was written on drifts
// by a quarter over tens of seconds (ops_per_s read 600 k to 780 k).
func setupPairProfiled(e *env, threads int) error {
	l, err := setupHashTable(e, placement(e.seed, e.topo, threads, 1), "profile-waits", pairOutsideSpin)
	if err != nil {
		return err
	}
	e.valid = func() error {
		if err := e.attachmentHealthy(); err != nil {
			return err
		}
		if h := slotOf(l).Peek(); h == nil || h.OnAcquired == nil || h.OnContended == nil {
			return errors.New("profiling hooks not installed at the end")
		}
		return nil
	}
	return nil
}

// rwLock is what rw_occ_gate needs from its lock: writer exclusion and
// optimistic read sections.
type rwLock interface {
	locks.Lock
	optReader
}

// setupRWOCC: one RWSem under the continuous profiler with occ-gate.pol,
// which promotes the lock to speculative reads once a profiling window
// shows it read-dominated. Readers snapshot a 64-slot table; every 64th
// op of a task bumps all slots under the write lock.
func setupRWOCC(e *env, threads int) error {
	cprof := profile.NewContinuous(profile.ContinuousConfig{Window: profileWindow})
	cprof.SetEnabled(true)
	e.fw.EnableContinuousProfiling(cprof)

	raw := locks.NewRWSem("rw")
	l, err := e.register(raw)
	if err != nil {
		return err
	}
	if err := e.attach(raw, "occ-gate"); err != nil {
		return err
	}
	table := new([rwSlots]atomic.Uint64)
	writes := make([]paddedCounter, threads)
	phase := newRNG(e.seed, streamOps)
	for i, cpu := range placement(e.seed, e.topo, threads, 1) {
		t := task.NewOnCPU(e.topo, cpu)
		e.addWorker(t, 0, rwOp(l.(rwLock), t, table, &writes[i].n, phase.next()))
	}
	e.check = func() (bad uint64) {
		var want uint64
		for i := range writes {
			want += writes[i].n
		}
		for i := range table {
			if table[i].Load() != want {
				bad++
			}
		}
		return bad
	}
	e.valid = func() error {
		if err := e.attachmentHealthy(); err != nil {
			return err
		}
		if st := raw.OCCStats(); !st.Promoted {
			return fmt.Errorf("lock not promoted to optimistic reads at the end (%d promotions, %d demotions)",
				st.Promotions, st.Demotions)
		}
		return nil
	}
	return e.scratchLifecycles(locks.NewRWSem("scratch"), "occ-gate")
}

// rwOp reads the whole table optimistically and fails unless every slot
// holds the same value; every rwWriteEvery-th op (at a seeded phase) takes
// the write lock and bumps every slot instead.
func rwOp(l rwLock, t *task.T, table *[rwSlots]atomic.Uint64, writes *uint64, phase uint64) func() bool {
	st := new(struct {
		_    cacheLine
		n    uint64
		snap [rwSlots]uint64
		_    cacheLine
	})
	st.n = phase
	read := func() {
		for i := range table {
			st.snap[i] = table[i].Load()
		}
	}
	return func() bool {
		if st.n++; st.n%rwWriteEvery == 0 {
			l.Lock(t)
			for i := range table {
				table[i].Store(table[i].Load() + 1)
			}
			*writes++
			l.Unlock(t)
			return true
		}
		l.OptRead(t, read)
		for i := 1; i < rwSlots; i++ {
			if st.snap[i] != st.snap[0] {
				return false
			}
		}
		return true
	}
}

// setupChurn: one controller issues policy lifecycles at churnRate on a
// single ShflLock while P-1 tasks run the lock2-shaped op on that lock.
func setupChurn(e *env, threads int) error {
	raw := locks.NewShflLock("churn")
	l, err := e.register(raw)
	if err != nil {
		return err
	}
	var counter paddedCounter
	traffic := max(threads-1, 1)
	for _, cpu := range placement(e.seed, e.topo, traffic, 1) {
		t := task.NewOnCPU(e.topo, cpu)
		e.addWorker(t, outSpin, lock2Op(l, t, &counter.n))
	}
	files := make([]string, len(shippedPolicies))
	for i, j := range policyOrder(e.seed, len(shippedPolicies)) {
		files[i] = shippedPolicies[j]
	}
	e.ctl = &controller{e: e, lock: raw, files: files, rate: churnRate, open: true}
	if e.tr != nil {
		e.ctl.tt = e.tr.add(nil)
	}
	e.check = func() (bad uint64) {
		var want uint64
		for _, w := range e.workers {
			want += w.total
		}
		if counter.n != want {
			bad++
		}
		return bad
	}
	e.valid = func() error {
		if e.life.done == 0 {
			return errors.New("no lifecycle ran inside the measured phase")
		}
		if s := raw.SafetyError(); s != "" {
			return fmt.Errorf("lock safety check tripped: %s", s)
		}
		return nil
	}
	return e.scratchLifecycles(locks.NewShflLock("scratch"), files...)
}
