package ksim

// Closed-loop workload driver: each simulated thread repeatedly thinks
// (non-critical work on its own CPU), acquires the lock, spends the
// critical section, and releases — the structure of every will-it-scale
// microbenchmark the paper evaluates with (§5).

// Workload describes one closed-loop benchmark.
type Workload struct {
	Name string
	// ThinkNS is the non-critical work per iteration.
	ThinkNS int64
	// CSNS is the critical-section length.
	CSNS int64
	// ReadFraction is the probability an iteration takes the lock
	// shared (1 = read-only, 0 = write-only).
	ReadFraction float64
	// JitterPct adds ±JitterPct% deterministic jitter to think and CS
	// times so queues do not lock-step.
	JitterPct int
}

// Result aggregates one run.
type Result struct {
	Ops        int64
	PerProc    []int64
	DurationNS int64
}

// OpsPerMSec returns total throughput in operations per millisecond —
// the y-axis unit of Figure 2(a) and (b).
func (r Result) OpsPerMSec() float64 {
	if r.DurationNS == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.DurationNS) / 1e6)
}

// MinMaxOps reports the least and most operations completed by any one
// thread — the fairness/starvation signal used by the ablations.
func (r Result) MinMaxOps() (min, max int64) {
	if len(r.PerProc) == 0 {
		return 0, 0
	}
	min, max = r.PerProc[0], r.PerProc[0]
	for _, v := range r.PerProc[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// jitter returns v with ±pct% deterministic noise.
func jitter(e *Engine, v int64, pct int) int64 {
	if pct <= 0 || v == 0 {
		return v
	}
	span := v * int64(pct) / 100
	return v - span + int64(e.Rand()%uint64(2*span+1))
}

// RunClosedLoop drives procs through the workload against lock for
// durationNS of virtual time.
func RunClosedLoop(e *Engine, lock SimLock, procs []*Proc, w Workload, durationNS int64) Result {
	res := Result{PerProc: make([]int64, len(procs)), DurationNS: durationNS}
	end := e.Now() + durationNS

	for i, p := range procs {
		i, p := i, p
		var loop func()
		loop = func() {
			if e.Now() >= end {
				return
			}
			think := jitter(e, w.ThinkNS, w.JitterPct)
			e.Schedule(think, func() {
				reader := w.ReadFraction > 0 &&
					(w.ReadFraction >= 1 || float64(e.Rand()%1000)/1000 < w.ReadFraction)
				lock.Acquire(p, reader, func() {
					cs := jitter(e, w.CSNS, w.JitterPct)
					e.Schedule(cs, func() {
						lock.Release(p, reader)
						res.Ops++
						res.PerProc[i]++
						loop()
					})
				})
			})
		}
		loop()
	}
	e.Run(end)
	return res
}
