// Package ksim is a deterministic discrete-event simulator of a multicore
// machine, the stand-in for the paper's eight-socket, 80-core testbed
// (§5). The evaluation figures are thread-scaling curves whose shape is
// produced by queueing effects and cacheline-transfer costs; ksim models
// exactly those, under a virtual clock, so the curves can be regenerated
// on any host — including the single-CPU machine this repository targets.
//
// What is and is not modelled (documented for honest interpretation):
//
//   - Modelled: virtual time; per-task closed-loop workloads; lock wait
//     queues with algorithm-specific handoff policies; cacheline transfer
//     costs scaled by NUMA distance; serialization on shared hot lines
//     (the central rwsem counter); per-hook policy execution costs for
//     Concord variants (and the *real*, verified cBPF programs can drive
//     simulated shuffling decisions).
//   - Not modelled: instruction-level timing, cache capacity, TLBs,
//     memory bandwidth saturation, or the OS scheduler. Absolute numbers
//     are therefore not comparable with the paper's hardware; the
//     relative shapes (who wins, by what factor, where curves flatten)
//     are what the model reproduces.
package ksim

import (
	"container/heap"
	"fmt"
	"sync/atomic"

	"concord/internal/topology"
)

// event is one scheduled callback.
type event struct {
	at  int64
	seq int64 // tie-break so same-time events run in schedule order
	fn  func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is a single-threaded discrete-event engine with a virtual
// nanosecond clock. It is deterministic: same schedule, same seed, same
// results.
type Engine struct {
	topo      *topology.Topology
	now       int64
	seq       int64
	pq        eventHeap
	rng       uint64
	processed int64
}

// NewEngine returns an engine over the given topology with an RNG seed.
func NewEngine(topo *topology.Topology, seed uint64) *Engine {
	return &Engine{topo: topo, rng: seed ^ 0x9e3779b97f4a7c15}
}

// Topology returns the simulated machine's topology.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Schedule runs fn after delay virtual nanoseconds.
func (e *Engine) Schedule(delay int64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("ksim: negative delay %d", delay))
	}
	e.seq++
	heap.Push(&e.pq, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Rand returns a deterministic pseudo-random uint64 (splitmix64).
func (e *Engine) Rand() uint64 {
	e.rng += 0x9e3779b97f4a7c15
	z := e.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run processes events until the virtual clock reaches until (exclusive)
// or no events remain. It returns the number of events processed.
func (e *Engine) Run(until int64) int {
	n := 0
	for len(e.pq) > 0 {
		if e.pq[0].at >= until {
			break
		}
		ev := heap.Pop(&e.pq).(event)
		if ev.at < e.now {
			panic("ksim: time went backwards")
		}
		e.now = ev.at
		ev.fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	e.processed += int64(n)
	return n
}

// EventsProcessed reports the total number of events run across every
// Run call — the simulator's work counter for telemetry.
func (e *Engine) EventsProcessed() int64 { return e.processed }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.pq) }

// Proc is a simulated thread pinned to a virtual CPU.
type Proc struct {
	ID     int
	CPU    int
	Socket int
	// Speed is the AMP speed class of the CPU (1.0 = full speed); work
	// durations divide by it, so slow cores take longer for the same
	// critical section.
	Speed float64
}

// NewProcs creates n simulated threads spread round-robin across the
// machine's CPUs, the way will-it-scale pins its workers.
func (e *Engine) NewProcs(n int) []*Proc {
	procs := make([]*Proc, n)
	for i := range procs {
		cpu := i % e.topo.NumCPUs()
		procs[i] = &Proc{
			ID: i, CPU: cpu,
			Socket: e.topo.SocketOf(cpu),
			Speed:  float64(e.topo.Speed(cpu)),
		}
	}
	return procs
}

// WorkNS scales a nominal duration by the proc's core speed (AMP):
// slower cores take proportionally longer.
func (p *Proc) WorkNS(nominal int64) int64 {
	if p.Speed <= 0 || p.Speed == 1.0 {
		return nominal
	}
	return int64(float64(nominal) / p.Speed)
}

// CostModel holds the timing constants of the simulated machine. The
// defaults are in the range of measured cacheline-transfer and atomic
// latencies on large x86 NUMA servers; EXPERIMENTS.md records the values
// used for each figure.
type CostModel struct {
	// AtomicNS is an uncontended atomic RMW on an owned line.
	AtomicNS int64
	// LocalTransferNS moves a cacheline between cores of one socket.
	LocalTransferNS int64
	// RemoteTransferNS moves a cacheline across sockets (distance 20);
	// other distances scale linearly against these two anchors.
	RemoteTransferNS int64
	// DispatchNS is Concord's per-hook-table indirection cost on the
	// acquire/release path (pinning the hook slot, nil checks).
	DispatchNS int64
	// PolicyExecNS is the cost of one interpreted cBPF policy run
	// (cmp_node etc.); native pre-compiled policies cost ~0 extra.
	PolicyExecNS int64

	// Transfers, when non-nil, counts cross-CPU cacheline movements (the
	// telemetry layer's view of simulated coherence traffic). The pointer
	// survives the by-value copies lock models keep.
	Transfers *atomic.Int64
}

// DefaultCosts returns the cost model used by the experiment harness.
func DefaultCosts() CostModel {
	return CostModel{
		AtomicNS:         18,
		LocalTransferNS:  45,
		RemoteTransferNS: 320,
		DispatchNS:       20,
		PolicyExecNS:     90,
	}
}

// Transfer returns the cost of moving a cacheline from the core of p to
// the core of q, scaled by NUMA distance.
func (c CostModel) Transfer(topo *topology.Topology, fromCPU, toCPU int) int64 {
	if fromCPU == toCPU {
		return c.AtomicNS
	}
	if c.Transfers != nil {
		c.Transfers.Add(1)
	}
	d := topo.Distance(fromCPU, toCPU)
	if d <= 10 {
		return c.LocalTransferNS
	}
	// Linear interpolation anchored at distance 10 (local) and 20
	// (remote); SLIT distances beyond 20 extrapolate.
	return c.LocalTransferNS + (c.RemoteTransferNS-c.LocalTransferNS)*int64(d-10)/10
}
