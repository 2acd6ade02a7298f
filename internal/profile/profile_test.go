package profile

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean() != 0 || s.Max != 0 || s.Percentile(99) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []int64{100, 200, 300, 400} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean() != 250 {
		t.Errorf("Mean = %d", s.Mean())
	}
	if s.Max != 400 {
		t.Errorf("Max = %d", s.Max)
	}
	// Negative samples clamp to zero rather than corrupting state.
	h.Record(-50)
	if h.Snapshot().Max != 400 {
		t.Error("negative sample changed max")
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	s := h.Snapshot()
	p50 := s.Percentile(50)
	p99 := s.Percentile(99)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %d, want log2 bucket containing ~500", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 %d < p50 %d", p99, p50)
	}
	if s.Percentile(100) < p99 {
		t.Error("p100 < p99")
	}
}

func TestHistogramMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		var h Histogram
		var max int64
		var sum int64
		for _, v := range vals {
			ns := int64(v)
			h.Record(ns)
			sum += ns
			if ns > max {
				max = ns
			}
		}
		s := h.Snapshot()
		if len(vals) == 0 {
			return s.Count == 0
		}
		return s.Count == int64(len(vals)) &&
			s.Max == max &&
			s.Mean() == sum/int64(len(vals)) &&
			s.Percentile(50) <= s.Percentile(99)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != 8000 {
		t.Errorf("Count = %d, want 8000", n)
	}
}

// exactProfiler is the on-demand preset: every event recorded, in one
// window that never closes.
func exactProfiler() *Continuous {
	c := NewContinuous(ContinuousConfig{SampleRate: 1, Window: math.MaxInt64})
	c.SetEnabled(true)
	return c
}

// TestProfilerEndToEnd drives real locks through the exact preset: its
// snapshot is the cumulative count of every event, nothing estimated.
func TestProfilerEndToEnd(t *testing.T) {
	tk := task.New(topology.New(2, 2))
	t.Run("shfllock", func(t *testing.T) {
		c := exactProfiler()
		l := locks.NewShflLock("target")
		l.HookSlot().Replace("prof", c.Hooks("target"))
		for i := 0; i < 25; i++ {
			l.Lock(tk)
			l.Unlock(tk)
		}
		s, ok := c.SnapshotFor("target")
		if !ok {
			t.Fatal("no stats recorded")
		}
		if s.Acqs != 25 || s.Rels != 25 {
			t.Errorf("acq=%d rel=%d", s.Acqs, s.Rels)
		}
		win := c.statsFor(l.ID(), "target").cur.Load()
		if wait, hold := win.wait.Snapshot().Count, win.hold.Snapshot().Count; wait != 25 || hold != 25 {
			t.Errorf("wait=%d hold=%d samples", wait, hold)
		}
		if s.Conts != 0 || s.ContentionPerMille != 0 {
			t.Errorf("uncontended lock: %d contentions, %d per mille", s.Conts, s.ContentionPerMille)
		}
	})
	t.Run("bravo-readers", func(t *testing.T) {
		c := exactProfiler()
		l := locks.NewBRAVO("rw", locks.NewRWSem("u"))
		l.HookSlot().Replace("prof", c.Hooks("rw"))
		for i := 0; i < 5; i++ {
			l.RLock(tk)
			l.RUnlock(tk)
		}
		if s, ok := c.SnapshotFor("rw"); !ok || s.ReadAcqs != 5 {
			t.Errorf("ReadAcqs = %d, want 5", s.ReadAcqs)
		}
	})
}

func TestProfilerAllSortsByContention(t *testing.T) {
	c := exactProfiler()
	a, b := c.Hooks("a"), c.Hooks("b")
	// The calmer lock has the lower ID: only its contention rate orders it.
	for i := 0; i < 50; i++ {
		if i < 5 {
			contend(a, 1, int64(i), 10, 10, 1)
		} else {
			ev := locks.Event{LockID: 1, NowNS: int64(i)}
			a.OnAcquired(&ev)
			a.OnRelease(&ev)
		}
		contend(b, 2, int64(i), 10, 10, 1)
	}
	all := c.Snapshots()
	if len(all) != 2 || all[0].Lock != "b" || all[0].Conts != 50 || all[1].Conts != 5 || all[1].Acqs != 50 {
		t.Errorf("not most contended first: %+v", all)
	}
}

func TestReportFormat(t *testing.T) {
	c := exactProfiler()
	h := c.Hooks("mmap_sem")
	for i := 0; i < 100; i++ {
		if i < 40 {
			contend(h, 9, int64(i), 1500, 2_500_000, 1)
			continue
		}
		ev := locks.Event{LockID: 9, NowNS: int64(i), HoldNS: 2_500_000}
		h.OnAcquired(&ev)
		h.OnRelease(&ev)
	}
	var buf bytes.Buffer
	if err := c.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mmap_sem#9", "100", "40", "400", "ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRingBasics(t *testing.T) {
	r := NewTraceRing(3) // 8 slots
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d", r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Record(TraceRecord{NowNS: int64(i), LockID: 1, Op: TraceAcquired})
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot %d records, want 5", len(snap))
	}
	for i, rec := range snap {
		if rec.NowNS != int64(i) {
			t.Errorf("record %d out of order: %d", i, rec.NowNS)
		}
	}
	if r.Overwritten() != 0 {
		t.Errorf("Overwritten = %d", r.Overwritten())
	}
}

func TestTraceRingWrapAround(t *testing.T) {
	r := NewTraceRing(2) // 4 slots
	for i := 0; i < 10; i++ {
		r.Record(TraceRecord{NowNS: int64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot %d records, want 4", len(snap))
	}
	if snap[0].NowNS != 6 || snap[3].NowNS != 9 {
		t.Errorf("kept wrong records: %v..%v", snap[0].NowNS, snap[3].NowNS)
	}
	if r.Overwritten() != 6 {
		t.Errorf("Overwritten = %d, want 6", r.Overwritten())
	}
}

// TestTraceRingHooksEndToEnd: a lock's lock_acquired and lock_release
// events, recorded through Record as the telemetry table records them,
// come back out of Snapshot and Dump with their identities.
func TestTraceRingHooksEndToEnd(t *testing.T) {
	topo := topology.New(2, 2)
	r := NewTraceRing(8)
	l := locks.NewShflLock("traced")
	rec := func(op TraceOp) func(*locks.Event) {
		return func(ev *locks.Event) {
			r.Record(TraceRecord{NowNS: ev.NowNS, LockID: ev.LockID, TaskID: ev.Task.ID(),
				Op: op, CPU: int32(ev.Task.CPU()), WaitNS: ev.WaitNS, HoldNS: ev.HoldNS})
		}
	}
	l.HookSlot().Replace("trace", &locks.Hooks{Name: "trace",
		OnAcquired: rec(TraceAcquired), OnRelease: rec(TraceRelease)})
	tk := task.New(topo)
	for i := 0; i < 10; i++ {
		l.Lock(tk)
		l.Unlock(tk)
	}
	snap := r.Snapshot()
	var acq, rel int
	for _, rec := range snap {
		switch rec.Op {
		case TraceAcquired:
			acq++
		case TraceRelease:
			rel++
		}
		if rec.LockID != l.ID() || rec.TaskID != tk.ID() {
			t.Errorf("bad identity in record %+v", rec)
		}
	}
	if acq != 10 || rel != 10 {
		t.Errorf("acquired=%d released=%d, want 10/10", acq, rel)
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "acquired") {
		t.Error("dump missing op names")
	}
}

func TestTraceRingConcurrentWriters(t *testing.T) {
	r := NewTraceRing(10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(TraceRecord{NowNS: int64(w*1000 + i), Op: TraceAcquire})
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) == 0 || len(snap) > r.Cap() {
		t.Errorf("snapshot size %d", len(snap))
	}
	// Hammering readers against writers must never return torn garbage;
	// every record's op must be valid.
	for _, rec := range snap {
		if rec.Op != TraceAcquire {
			t.Errorf("torn record: %+v", rec)
		}
	}
}
