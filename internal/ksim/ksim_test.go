package ksim

import (
	"testing"
	"testing/quick"

	"concord/internal/topology"
)

func testEngine() *Engine { return NewEngine(topology.Paper(), 42) }

func TestEngineOrdering(t *testing.T) {
	e := testEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(10, func() { got = append(got, 11) }) // same time: schedule order
	e.Run(100)
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d, want 100", e.Now())
	}
}

func TestEngineRunStopsAtDeadline(t *testing.T) {
	e := testEngine()
	fired := false
	e.Schedule(200, func() { fired = true })
	e.Run(100)
	if fired {
		t.Error("event beyond deadline fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run(300)
	if !fired {
		t.Error("event never fired")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := testEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 10 {
			e.Schedule(5, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run(1000)
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		e := testEngine()
		lock := NewSimShfl(e, DefaultCosts(), func(s, c *Proc) bool { return s.Socket == c.Socket }, 0)
		procs := e.NewProcs(40)
		res := RunClosedLoop(e, lock, procs, Workload{ThinkNS: 500, CSNS: 300, JitterPct: 20}, 5_000_000)
		return res.Ops, res.OpsPerMSec()
	}
	ops1, tp1 := run()
	ops2, tp2 := run()
	if ops1 != ops2 || tp1 != tp2 {
		t.Errorf("non-deterministic: %d/%f vs %d/%f", ops1, tp1, ops2, tp2)
	}
	if ops1 == 0 {
		t.Error("no ops completed")
	}
}

func TestCostModelTransfer(t *testing.T) {
	topo := topology.Paper()
	c := DefaultCosts()
	if got := c.Transfer(topo, 3, 3); got != c.AtomicNS {
		t.Errorf("same core: %d", got)
	}
	if got := c.Transfer(topo, 0, 5); got != c.LocalTransferNS {
		t.Errorf("same socket: %d", got)
	}
	if got := c.Transfer(topo, 0, 15); got != c.RemoteTransferNS {
		t.Errorf("remote: %d", got)
	}
}

// completionInvariant: every lock must complete the same total work
// regardless of policy — conservation of operations in a closed loop.
func TestLockCompletionInvariant(t *testing.T) {
	mk := map[string]func(e *Engine) SimLock{
		"qspin": func(e *Engine) SimLock { return NewSimQspin(e, DefaultCosts()) },
		"shfl": func(e *Engine) SimLock {
			return NewSimShfl(e, DefaultCosts(), func(s, c *Proc) bool { return s.Socket == c.Socket }, 0)
		},
		"rwsem": func(e *Engine) SimLock { return NewSimRWSem(e, DefaultCosts()) },
		"bravo": func(e *Engine) SimLock { return NewSimBRAVO(e, DefaultCosts(), 0) },
	}
	for name, ctor := range mk {
		t.Run(name, func(t *testing.T) {
			e := testEngine()
			lock := ctor(e)
			procs := e.NewProcs(16)
			res := RunClosedLoop(e, lock, procs, Workload{
				ThinkNS: 400, CSNS: 200, ReadFraction: 0.5, JitterPct: 10,
			}, 3_000_000)
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			var sum int64
			for _, v := range res.PerProc {
				sum += v
			}
			if sum != res.Ops {
				t.Errorf("per-proc sum %d != total %d", sum, res.Ops)
			}
			min, _ := res.MinMaxOps()
			if min == 0 {
				t.Errorf("%s starved a thread completely", name)
			}
		})
	}
}

func TestRWSemCollapsesUnderReaders(t *testing.T) {
	// The stock rwsem's reader throughput must NOT scale with thread
	// count (central counter line), while BRAVO's must. This is the
	// shape of Figure 2(a).
	read := Workload{ThinkNS: 2000, CSNS: 600, ReadFraction: 1}
	tp := func(mk func(e *Engine) SimLock, threads int) float64 {
		e := testEngine()
		res := RunClosedLoop(e, mk(e), e.NewProcs(threads), read, 10_000_000)
		return res.OpsPerMSec()
	}
	rwsem := func(e *Engine) SimLock { return NewSimRWSem(e, DefaultCosts()) }
	bravo := func(e *Engine) SimLock { return NewSimBRAVO(e, DefaultCosts(), 0) }

	r10, r80 := tp(rwsem, 10), tp(rwsem, 80)
	b10, b80 := tp(bravo, 10), tp(bravo, 80)
	if r80 > r10*2 {
		t.Errorf("rwsem scaled %0.f -> %0.f ops/ms; expected collapse", r10, r80)
	}
	if b80 < b10*4 {
		t.Errorf("BRAVO did not scale: %0.f -> %0.f ops/ms", b10, b80)
	}
	if b80 < r80*3 {
		t.Errorf("BRAVO (%0.f) not clearly above rwsem (%0.f) at 80 threads", b80, r80)
	}
}

func TestShflLockBeatsQspinAcrossSockets(t *testing.T) {
	// Write-heavy lock2 shape (Figure 2(b)): NUMA shuffling keeps most
	// handoffs local, stock qspinlock pays remote transfers.
	w := Workload{ThinkNS: 300, CSNS: 250, JitterPct: 10}
	tp := func(mk func(e *Engine) SimLock) float64 {
		e := testEngine()
		res := RunClosedLoop(e, mk(e), e.NewProcs(80), w, 10_000_000)
		return res.OpsPerMSec()
	}
	qspin := tp(func(e *Engine) SimLock { return NewSimQspin(e, DefaultCosts()) })
	shfl := tp(func(e *Engine) SimLock {
		return NewSimShfl(e, DefaultCosts(), func(s, c *Proc) bool { return s.Socket == c.Socket }, 0)
	})
	if shfl < qspin*1.5 {
		t.Errorf("ShflLock %.0f not clearly above qspinlock %.0f ops/ms", shfl, qspin)
	}
}

func TestShflShuffleActuallyMoves(t *testing.T) {
	e := testEngine()
	l := NewSimShfl(e, DefaultCosts(), func(s, c *Proc) bool { return s.Socket == c.Socket }, 0)
	res := RunClosedLoop(e, l, e.NewProcs(80), Workload{ThinkNS: 100, CSNS: 300}, 5_000_000)
	if res.Ops == 0 || l.Moves == 0 {
		t.Errorf("ops=%d moves=%d", res.Ops, l.Moves)
	}
}

func TestBRAVOFastPathDominatesReadOnly(t *testing.T) {
	e := testEngine()
	l := NewSimBRAVO(e, DefaultCosts(), 0)
	RunClosedLoop(e, l, e.NewProcs(40), Workload{ThinkNS: 1000, CSNS: 500, ReadFraction: 1}, 5_000_000)
	if l.FastReads == 0 {
		t.Fatal("no fast reads")
	}
	if l.SlowReads > l.FastReads/10 {
		t.Errorf("slow reads %d vs fast %d; bias not effective", l.SlowReads, l.FastReads)
	}
}

func TestBRAVOWriterRevokes(t *testing.T) {
	e := testEngine()
	l := NewSimBRAVO(e, DefaultCosts(), 0)
	res := RunClosedLoop(e, l, e.NewProcs(20), Workload{
		ThinkNS: 1000, CSNS: 400, ReadFraction: 0.9, JitterPct: 10,
	}, 5_000_000)
	if res.Ops == 0 {
		t.Fatal("no ops with writers in the mix")
	}
	if l.SlowReads == 0 {
		t.Error("writers never pushed readers to the slow path")
	}
}

func TestDispatchCostReducesThroughputBoundedly(t *testing.T) {
	// Figure 2(c)'s worst case: hook dispatch with no policy work must
	// cost something, but bounded (paper: up to ~20%).
	w := Workload{ThinkNS: 200, CSNS: 150, JitterPct: 10}
	c := DefaultCosts()
	tp := func(dispatch int64) float64 {
		e := testEngine()
		l := NewSimShfl(e, c, func(s, cc *Proc) bool { return s.Socket == cc.Socket }, dispatch)
		return RunClosedLoop(e, l, e.NewProcs(40), w, 10_000_000).OpsPerMSec()
	}
	base := tp(0)
	hooked := tp(c.DispatchNS)
	ratio := hooked / base
	if ratio > 1.001 {
		t.Errorf("dispatch made things faster? ratio=%.3f", ratio)
	}
	if ratio < 0.75 {
		t.Errorf("dispatch overhead too large: ratio=%.3f", ratio)
	}
}

func TestJitterBounds(t *testing.T) {
	e := testEngine()
	f := func(v int64, pct uint8) bool {
		if v < 0 {
			v = -v
		}
		v %= 1_000_000
		p := int(pct % 50)
		j := jitter(e, v, p)
		span := v * int64(p) / 100
		return j >= v-span && j <= v+span
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
