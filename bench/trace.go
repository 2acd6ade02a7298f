package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"concord/internal/locks"
	"concord/internal/task"
)

// span is one timed interval of the traced run, as written to the trace
// file. Spans of one data-plane op (or one policy lifecycle) share Op;
// Parent is the ID of the enclosing span, 0 for a root. Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span buffers are preallocated so that recording never allocates inside
// the measured phase; an op that would overflow its buffer is not recorded
// at all (and counted), so the file never holds half an op.
const (
	spansPerTask = 1 << 16
	maxSpanDepth = 8
	// spanOpGap rate-limits recording to one op per task per gap: the
	// 1-in-64 latency sample of an uncontended lock is still ~30k ops/s,
	// far more than a readable trace needs.
	spanOpGap = 500 * time.Microsecond
)

// tracer owns the traced run's spans. Everything below it is written by
// exactly one goroutine (a task's worker, or the lifecycle controller);
// the tracer itself only carries the switch the slices flip.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	byTask map[*task.T]*taskTrace // fixed before the workers start
	all    []*taskTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byTask: make(map[*task.T]*taskTrace)}
}

// taskTrace is the span buffer of one goroutine.
type taskTrace struct {
	_     cacheLine
	tr    *tracer
	base  uint64
	spans []span
	stack [maxSpanDepth]int32
	depth int
	op    uint64 // current op id; 0 while not recording

	lastOp    int64 // start of the last recorded op, for spanOpGap
	nextOp    uint64
	dropped   uint64
	hookFires uint64
	contended uint64
	_         cacheLine
}

// add registers a span buffer; t may be nil for a goroutine that runs no
// lock operations of its own (the lifecycle controller).
func (tr *tracer) add(t *task.T) *taskTrace {
	tt := &taskTrace{tr: tr, base: uint64(len(tr.all)+1) << 32, spans: make([]span, 0, spansPerTask)}
	tr.all = append(tr.all, tt)
	if t != nil {
		tr.byTask[t] = tt
	}
	return tt
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// beginOp opens the root span of one operation, unless tracing is off,
// the rate limit says no, or the buffer is nearly full.
func (tt *taskTrace) beginOp(name string, limit bool) bool {
	if !tt.tr.on.Load() {
		return false
	}
	now := tt.tr.now()
	if limit && now-tt.lastOp < int64(spanOpGap) {
		return false
	}
	if len(tt.spans)+4*maxSpanDepth > cap(tt.spans) {
		tt.dropped++
		return false
	}
	tt.lastOp = now
	tt.nextOp++
	tt.op = tt.base | tt.nextOp
	tt.begin(name)
	return true
}

func (tt *taskTrace) endOp() {
	for tt.depth > 0 {
		tt.end()
	}
	tt.op = 0
}

// begin opens a child of the innermost open span. It is a no-op outside
// a recorded op, which is how the lock wrapper and the hook shim stay
// cheap on the 63 ops in 64 that are not sampled.
func (tt *taskTrace) begin(name string) {
	if tt.op == 0 || tt.depth == maxSpanDepth || len(tt.spans) == cap(tt.spans) {
		return
	}
	var parent uint64
	if tt.depth > 0 {
		parent = tt.spans[tt.stack[tt.depth-1]].ID
	}
	tt.stack[tt.depth] = int32(len(tt.spans))
	tt.depth++
	tt.spans = append(tt.spans, span{
		ID: tt.base | uint64(len(tt.spans)+1), Parent: parent, Op: tt.op, Name: name, Start: tt.tr.now(),
	})
}

func (tt *taskTrace) end() {
	if tt.op == 0 || tt.depth == 0 {
		return
	}
	tt.depth--
	tt.spans[tt.stack[tt.depth]].End = tt.tr.now()
}

// spanLock wraps the lock under test so that a recorded op gets
// locks.Lock, cs and locks.Unlock spans without the workload code (which
// for the hashtable lives in internal/workloads) knowing about tracing.
type spanLock struct {
	inner locks.Lock
	tr    *tracer
}

func (l *spanLock) TryLock(t *task.T) bool { return l.inner.TryLock(t) }
func (l *spanLock) ID() uint64             { return l.inner.ID() }
func (l *spanLock) Name() string           { return l.inner.Name() }

func (l *spanLock) recording(t *task.T) *taskTrace {
	if !l.tr.on.Load() {
		return nil
	}
	if tt := l.tr.byTask[t]; tt != nil && tt.op != 0 {
		return tt
	}
	return nil
}

func (l *spanLock) Lock(t *task.T) {
	tt := l.recording(t)
	if tt == nil {
		l.inner.Lock(t)
		return
	}
	tt.begin("locks.Lock")
	l.inner.Lock(t)
	tt.end()
	tt.begin("cs")
}

func (l *spanLock) Unlock(t *task.T) {
	tt := l.recording(t)
	if tt == nil {
		l.inner.Unlock(t)
		return
	}
	tt.end() // cs
	tt.begin("locks.Unlock")
	l.inner.Unlock(t)
	tt.end()
}

// optReader is the read side of the rwsem-family locks.
type optReader interface {
	OptRead(t *task.T, fn func())
}

func (l *spanLock) OptRead(t *task.T, fn func()) {
	inner := l.inner.(optReader)
	tt := l.recording(t)
	if tt == nil {
		inner.OptRead(t, fn)
		return
	}
	tt.begin("locks.OptRead")
	inner.OptRead(t, fn)
	tt.end()
}

// shim wraps every closure of a lock's hook table with a span and a
// fire counter: the locks→core boundary, seen from outside both. It adds
// an OnContended counter even where the table had none, because that is
// the only outside view of how often the slow path is taken. h may be nil.
func (tr *tracer) shim(h *locks.Hooks) *locks.Hooks {
	out := &locks.Hooks{Name: "bench-trace"}
	if h != nil {
		out.Name = h.Name + "+bench-trace"
	}
	enter := func(t *task.T, name string) *taskTrace {
		if !tr.on.Load() {
			return nil
		}
		tt := tr.byTask[t]
		if tt != nil {
			tt.hookFires++
			tt.begin(name)
		}
		return tt
	}
	leave := func(tt *taskTrace) {
		if tt != nil {
			tt.end()
		}
	}
	event := func(f func(*locks.Event), name string) func(*locks.Event) {
		if f == nil {
			return nil
		}
		return func(ev *locks.Event) {
			tt := enter(ev.Task, name)
			f(ev)
			leave(tt)
		}
	}
	if h != nil {
		if f := h.CmpNode; f != nil {
			out.CmpNode = func(info *locks.ShuffleInfo) bool {
				tt := enter(info.Shuffler.Task, "core.hook.cmp_node")
				r := f(info)
				leave(tt)
				return r
			}
		}
		if f := h.SkipShuffle; f != nil {
			out.SkipShuffle = func(info *locks.ShuffleInfo) bool {
				tt := enter(info.Shuffler.Task, "core.hook.skip_shuffle")
				r := f(info)
				leave(tt)
				return r
			}
		}
		if f := h.ScheduleWaiter; f != nil {
			out.ScheduleWaiter = func(info *locks.WaitInfo) int {
				tt := enter(info.Curr.Task, "core.hook.schedule_waiter")
				r := f(info)
				leave(tt)
				return r
			}
		}
		out.OnAcquire = event(h.OnAcquire, "core.hook.lock_acquire")
		out.OnAcquired = event(h.OnAcquired, "core.hook.lock_acquired")
		out.OnRelease = event(h.OnRelease, "core.hook.lock_release")
	}
	var contended func(*locks.Event)
	if h != nil {
		contended = event(h.OnContended, "core.hook.lock_contended")
	}
	out.OnContended = func(ev *locks.Event) {
		if tr.on.Load() {
			if tt := tr.byTask[ev.Task]; tt != nil {
				tt.contended++
			}
		}
		if contended != nil {
			contended(ev)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time of the spans:
// each span's duration minus the part its direct children cover. Spans
// still open (End 0) are skipped, and so are their subtrees' claims on
// them. Children are nested and do not overlap — each goroutine keeps one
// stack — so the self times of one op add up to its root span exactly.
func selfTimes(spans []span) map[string]int64 {
	covered := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.End != 0 && s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		if s.End != 0 {
			self[s.Name] += s.End - s.Start - covered[s.ID]
		}
	}
	return self
}

// rootTime sums the durations of the closed root spans with this name.
func rootTime(spans []span, name string) (total int64) {
	for _, s := range spans {
		if s.Parent == 0 && s.End != 0 && s.Name == name {
			total += s.End - s.Start
		}
	}
	return total
}

// write stores every span as one JSON array under dir.
func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sep := "[\n"
	for _, tt := range tr.all {
		for i := range tt.spans {
			if tt.spans[i].End == 0 {
				continue
			}
			fmt.Fprint(w, sep)
			sep = ","
			if err := enc.Encode(&tt.spans[i]); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if sep == "[\n" {
		fmt.Fprint(w, "[")
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
