package profile

import (
	"fmt"
	"io"
	"sync/atomic"
)

// TraceOp classifies a trace record.
type TraceOp uint8

// Trace record operations (the four profiling hook points).
const (
	TraceAcquire TraceOp = iota + 1
	TraceContended
	TraceAcquired
	TraceRelease
)

var traceOpNames = [...]string{
	TraceAcquire: "acquire", TraceContended: "contended",
	TraceAcquired: "acquired", TraceRelease: "release",
}

// String implements fmt.Stringer.
func (op TraceOp) String() string {
	if int(op) < len(traceOpNames) && traceOpNames[op] != "" {
		return traceOpNames[op]
	}
	return "?"
}

// TraceRecord is one lock event, compact enough to record at full rate.
type TraceRecord struct {
	NowNS  int64
	LockID uint64
	TaskID int64
	Op     TraceOp
	CPU    int32
	WaitNS int64
	HoldNS int64
}

// TraceRing is a lock-free, fixed-size ring of lock events — the
// finest-grained §3.2 profiling mode: where the profiler's windows
// aggregate, the ring keeps the raw event sequence for offline analysis
// (per-task timelines, queue reconstruction). Writers never block; old
// records are overwritten. Slots are flat atomic words, so Record never
// allocates — cheap enough to leave on at full event rate. A snapshot
// taken while writers are active is best-effort: a record being
// overwritten concurrently may mix fields of the old and new event.
//
// Lost-record semantics: once the ring wraps, each Record call evicts
// the oldest record and Overwritten counts every eviction since the ring
// was created. A Snapshot therefore holds the most recent Cap() records
// at most; consumers that need a gap-free sequence must drain the ring
// (Snapshot + account for Overwritten) faster than writers fill it.
type TraceRing struct {
	mask uint64
	pos  atomic.Uint64
	recs []traceSlot
}

// traceSlot is one record flattened to independently-atomic words:
// now, lockID, taskID, op|cpu<<8, wait, hold.
type traceSlot [6]atomic.Uint64

func (s *traceSlot) store(rec TraceRecord) {
	s[0].Store(uint64(rec.NowNS))
	s[1].Store(rec.LockID)
	s[2].Store(uint64(rec.TaskID))
	s[3].Store(uint64(rec.Op) | uint64(uint32(rec.CPU))<<8)
	s[4].Store(uint64(rec.WaitNS))
	s[5].Store(uint64(rec.HoldNS))
}

func (s *traceSlot) load() TraceRecord {
	opcpu := s[3].Load()
	return TraceRecord{
		NowNS:  int64(s[0].Load()),
		LockID: s[1].Load(),
		TaskID: int64(s[2].Load()),
		Op:     TraceOp(opcpu & 0xff),
		CPU:    int32(uint32(opcpu >> 8)),
		WaitNS: int64(s[4].Load()),
		HoldNS: int64(s[5].Load()),
	}
}

// NewTraceRing returns a ring holding 2^order records.
func NewTraceRing(order uint) *TraceRing {
	n := uint64(1) << order
	return &TraceRing{
		mask: n - 1,
		recs: make([]traceSlot, n),
	}
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int { return len(r.recs) }

// Record appends one event, overwriting the oldest if full.
func (r *TraceRing) Record(rec TraceRecord) {
	i := (r.pos.Add(1) - 1) & r.mask
	r.recs[i].store(rec)
}

// Overwritten reports how many records were lost to wrap-around.
func (r *TraceRing) Overwritten() int64 {
	if p, n := r.pos.Load(), uint64(len(r.recs)); p > n {
		return int64(p - n)
	}
	return 0
}

// Snapshot returns the records currently in the ring, oldest first
// (best effort under concurrent writes).
func (r *TraceRing) Snapshot() []TraceRecord {
	n := uint64(len(r.recs))
	end := r.pos.Load()
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]TraceRecord, 0, end-start)
	for p := start; p < end; p++ {
		// Slots below pos were claimed by a writer; one still being
		// stored reads as stale or zero data, within the best-effort
		// contract above.
		out = append(out, r.recs[p&r.mask].load())
	}
	return out
}

// Dump writes the snapshot as one line per record, preceded by a header
// line naming the columns and the trace ops, and reporting how many
// records were lost to wrap-around.
func (r *TraceRing) Dump(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# now_ns lock task cpu op(%s|%s|%s|%s) wait_ns hold_ns lost=%d\n",
		TraceAcquire, TraceContended, TraceAcquired, TraceRelease, r.Overwritten()); err != nil {
		return err
	}
	for _, rec := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%d lock=%d task=%d cpu=%d %s wait=%d hold=%d\n",
			rec.NowNS, rec.LockID, rec.TaskID, rec.CPU, rec.Op, rec.WaitNS, rec.HoldNS); err != nil {
			return err
		}
	}
	return nil
}
