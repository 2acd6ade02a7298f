package ksim

// Simulated lock models. Each reproduces the *contention behaviour* of
// its real counterpart in internal/locks: how the next owner is chosen,
// which cachelines must move at handoff, and what serializes on shared
// state. See the package comment for the modelling scope.

// SimLock is a lock inside the simulation. Acquire is asynchronous:
// grant runs (possibly later in virtual time) when the lock is owned.
type SimLock interface {
	// Acquire requests the lock for p; reader marks a shared request.
	// grant fires at the virtual time the acquisition completes.
	Acquire(p *Proc, reader bool, grant func())
	// Release returns the lock; reader must match the acquisition.
	Release(p *Proc, reader bool)
}

// waiter is a queued acquisition request.
type waiter struct {
	p      *Proc
	reader bool
	grant  func()
	bypass int // times other waiters were shuffled ahead of this one
}

// --- Stock queue spinlock (qspinlock) ---

// SimQspin models the kernel's qspinlock: strict FIFO handoff, one
// cacheline transfer from releaser to the (arbitrarily located) next
// waiter. With threads spread over all sockets, most handoffs are
// remote — the cost ShflLock's NUMA policy removes.
type SimQspin struct {
	e       *Engine
	c       CostModel
	held    bool
	lastCPU int
	queue   []waiter
}

// NewSimQspin returns a simulated qspinlock.
func NewSimQspin(e *Engine, c CostModel) *SimQspin { return &SimQspin{e: e, c: c} }

// Acquire implements SimLock.
func (l *SimQspin) Acquire(p *Proc, _ bool, grant func()) {
	if !l.held {
		l.held = true
		cost := l.c.Transfer(l.e.topo, l.lastCPU, p.CPU)
		l.lastCPU = p.CPU
		l.e.Schedule(cost, grant)
		return
	}
	l.queue = append(l.queue, waiter{p: p, grant: grant})
}

// Release implements SimLock.
func (l *SimQspin) Release(p *Proc, _ bool) {
	if len(l.queue) == 0 {
		l.held = false
		l.lastCPU = p.CPU
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	cost := l.c.Transfer(l.e.topo, p.CPU, w.p.CPU)
	l.lastCPU = w.p.CPU
	l.e.Schedule(cost, w.grant)
}

// --- ShflLock ---

// CmpFunc is the simulated cmp_node decision: should curr be grouped
// into the shuffler's batch? Concord variants plug the real, verified
// cBPF program in here (see the experiment harness).
type CmpFunc func(shuffler, curr *Proc) bool

// SimShfl models ShflLock: FIFO queue plus a shuffling phase run by the
// waiting queue head. Shuffling itself is off the critical path (the
// shuffler works while waiting), so it does not lengthen handoff; what
// the Concord variant pays on the hot path is the hook-dispatch cost.
type SimShfl struct {
	e            *Engine
	c            CostModel
	held         bool
	lastCPU      int
	queue        []waiter
	cmp          CmpFunc
	maxBatch     int
	bypassBudget int // starvation bound, like the real lock's
	// DispatchCost is added to every acquire and release (hook-table
	// indirection); zero for the pre-compiled variant.
	dispatch int64
	// Moves counts shuffle relocations (test observability).
	Moves int64
}

// NewSimShfl returns a simulated ShflLock. cmp may be nil (plain FIFO).
// dispatch is the per-operation hook overhead (0 = pre-compiled lock).
func NewSimShfl(e *Engine, c CostModel, cmp CmpFunc, dispatch int64) *SimShfl {
	return &SimShfl{e: e, c: c, cmp: cmp, maxBatch: 32, bypassBudget: 16, dispatch: dispatch}
}

// Acquire implements SimLock.
func (l *SimShfl) Acquire(p *Proc, _ bool, grant func()) {
	if !l.held {
		l.held = true
		cost := l.c.Transfer(l.e.topo, l.lastCPU, p.CPU) + l.dispatch
		l.lastCPU = p.CPU
		l.e.Schedule(cost, grant)
		return
	}
	l.queue = append(l.queue, waiter{p: p, grant: grant})
}

// Release implements SimLock.
func (l *SimShfl) Release(p *Proc, _ bool) {
	if len(l.queue) == 0 {
		l.held = false
		l.lastCPU = p.CPU
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	// The new head becomes the shuffler: group matching waiters right
	// behind it (stable, bounded batch). This work happened while
	// waiting, so it adds no handoff latency. Each bypassed waiter is
	// charged against its bypass budget, bounding starvation exactly
	// like the real lock.
	if l.cmp != nil && len(l.queue) > 1 {
		l.shuffleFor(next.p)
	}
	cost := l.c.Transfer(l.e.topo, p.CPU, next.p.CPU) + l.dispatch
	l.lastCPU = next.p.CPU
	l.e.Schedule(cost, next.grant)
}

func (l *SimShfl) shuffleFor(shuffler *Proc) {
	matched := make([]waiter, 0, len(l.queue))
	rest := make([]waiter, 0, len(l.queue))
	frozen := false
	for i, w := range l.queue {
		move := !frozen && len(matched) < l.maxBatch && l.cmp(shuffler, w.p)
		if move && i != len(matched) {
			// Moving w overtakes everyone in rest; if any of them has
			// exhausted its bypass budget, reordering freezes — the
			// sim analogue of the real lock's starvation bound.
			for j := range rest {
				if rest[j].bypass >= l.bypassBudget {
					frozen = true
				}
			}
			if frozen {
				move = false
			} else {
				for j := range rest {
					rest[j].bypass++
				}
				l.Moves++
			}
		}
		if move {
			matched = append(matched, w)
		} else {
			rest = append(rest, w)
		}
	}
	l.queue = append(matched, rest...)
}

// --- Stock neutral rwsem ---

// SimRWSem models a centralized readers-writer semaphore: every reader
// entry and exit is an atomic RMW on one shared cacheline, so reader
// throughput is bounded by the line's transfer rate no matter how many
// cores join — the collapse Figure 2(a) shows for "Stock".
type SimRWSem struct {
	e *Engine
	c CostModel

	lineFreeAt int64 // when the shared counter line is next available
	lineCPU    int   // last core that owned the line

	readers       int
	writer        bool
	queuedWriters []waiter
	queuedReaders []waiter
}

// NewSimRWSem returns a simulated neutral rwsem.
func NewSimRWSem(e *Engine, c CostModel) *SimRWSem { return &SimRWSem{e: e, c: c} }

// touchLine serializes an access to the shared counter line and returns
// the delay until this access completes.
func (l *SimRWSem) touchLine(p *Proc) int64 {
	start := l.lineFreeAt
	if now := l.e.Now(); start < now {
		start = now
	}
	done := start + l.c.Transfer(l.e.topo, l.lineCPU, p.CPU)
	l.lineFreeAt = done
	l.lineCPU = p.CPU
	return done - l.e.Now()
}

// Acquire implements SimLock.
func (l *SimRWSem) Acquire(p *Proc, reader bool, grant func()) {
	delay := l.touchLine(p)
	if reader {
		if l.writer || len(l.queuedWriters) > 0 {
			l.queuedReaders = append(l.queuedReaders, waiter{p: p, reader: true, grant: grant})
			return
		}
		l.readers++
		l.e.Schedule(delay, grant)
		return
	}
	if l.writer || l.readers > 0 {
		l.queuedWriters = append(l.queuedWriters, waiter{p: p, grant: grant})
		return
	}
	l.writer = true
	l.e.Schedule(delay, grant)
}

// Release implements SimLock.
func (l *SimRWSem) Release(p *Proc, reader bool) {
	l.touchLine(p) // the exit RMW also serializes on the line
	if reader {
		l.readers--
	} else {
		l.writer = false
	}
	l.dispatchQueued()
}

func (l *SimRWSem) dispatchQueued() {
	if l.writer {
		return
	}
	if l.readers == 0 && len(l.queuedWriters) > 0 {
		w := l.queuedWriters[0]
		l.queuedWriters = l.queuedWriters[1:]
		l.writer = true
		l.e.Schedule(l.touchLine(w.p), w.grant)
		return
	}
	if len(l.queuedWriters) == 0 {
		for _, r := range l.queuedReaders {
			l.readers++
			l.e.Schedule(l.touchLine(r.p), r.grant)
		}
		l.queuedReaders = l.queuedReaders[:0]
	}
}

// --- BRAVO ---

// SimBRAVO models BRAVO over an underlying rwsem: biased readers publish
// in a private slot (one uncontended atomic, no shared line), writers
// revoke by scanning the visible-readers table and then inhibit
// re-biasing. dispatch models Concord hook overhead on the read path.
type SimBRAVO struct {
	e     *Engine
	c     CostModel
	under *SimRWSem

	bias         bool
	inhibitUntil int64
	fastReaders  int
	drainWaiters []waiter // writers waiting for fast readers to drain
	dispatch     int64

	// FastReads / SlowReads count the paths taken (tests).
	FastReads, SlowReads int64
}

// NewSimBRAVO returns a simulated BRAVO wrapping a fresh rwsem.
func NewSimBRAVO(e *Engine, c CostModel, dispatch int64) *SimBRAVO {
	return &SimBRAVO{e: e, c: c, under: NewSimRWSem(e, c), bias: true, dispatch: dispatch}
}

// Acquire implements SimLock.
func (l *SimBRAVO) Acquire(p *Proc, reader bool, grant func()) {
	if reader {
		if l.bias {
			// Fast path: one atomic in a slot nobody else touches.
			l.fastReaders++
			l.FastReads++
			l.e.Schedule(l.c.AtomicNS+l.dispatch, grant)
			return
		}
		l.SlowReads++
		if !l.bias && l.e.Now() >= l.inhibitUntil {
			l.bias = true // reader re-arms the bias after the window
		}
		l.under.Acquire(p, true, grant)
		return
	}
	// Writer: take the underlying lock, then revoke the bias.
	l.under.Acquire(p, false, func() {
		if !l.bias && l.fastReaders == 0 {
			grant()
			return
		}
		l.bias = false
		scan := l.c.LocalTransferNS * 64 // sweep the visible-readers table
		if l.fastReaders > 0 {
			// Also wait for published readers to drain; they finish on
			// their own schedule, so queue behind them.
			l.drainWaiters = append(l.drainWaiters, waiter{p: p, grant: grant})
			l.inhibitUntil = l.e.Now() + scan*9
			return
		}
		l.inhibitUntil = l.e.Now() + scan*9
		l.e.Schedule(scan, grant)
	})
}

// Release implements SimLock.
func (l *SimBRAVO) Release(p *Proc, reader bool) {
	if reader {
		if l.fastReaders > 0 {
			l.fastReaders--
			if l.fastReaders == 0 {
				for _, w := range l.drainWaiters {
					l.e.Schedule(0, w.grant)
				}
				l.drainWaiters = l.drainWaiters[:0]
			}
			return
		}
		l.under.Release(p, true)
		return
	}
	l.under.Release(p, false)
}
