package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"concord/internal/profile"
)

// The Chrome trace-event JSON format (loadable by chrome://tracing and
// ui.perfetto.dev). We emit complete ("X") duration events: a lock
// acquisition becomes a "wait <lock>" slice from enqueue to acquisition
// and a "hold <lock>" slice from acquisition to release, on a track per
// task.

// chromeEvent is one trace event; field names are the format's.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// pidLocks is the synthetic "process" that holds the lock tracks.
const pidLocks = 1

// TraceBuilder accumulates lock events and renders one loadable
// timeline.
type TraceBuilder struct {
	events []chromeEvent
	meta   map[string]chromeEvent // dedup key -> metadata event
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder {
	return &TraceBuilder{meta: make(map[string]chromeEvent)}
}

func (b *TraceBuilder) nameTrack(pid, tid int64, process, thread string) {
	pkey := fmt.Sprintf("p%d", pid)
	if _, ok := b.meta[pkey]; !ok {
		b.meta[pkey] = chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": process},
		}
	}
	tkey := fmt.Sprintf("p%d.t%d", pid, tid)
	if _, ok := b.meta[tkey]; !ok {
		b.meta[tkey] = chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": thread},
		}
	}
}

// AddLockRecords renders a TraceRing snapshot: each acquired record with
// a wait becomes a wait slice, each release with a hold becomes a hold
// slice. lockName resolves lock IDs to labels and may be nil.
func (b *TraceBuilder) AddLockRecords(recs []profile.TraceRecord, lockName func(uint64) string) {
	name := func(id uint64) string {
		if lockName != nil {
			if n := lockName(id); n != "" {
				return n
			}
		}
		return fmt.Sprintf("lock#%d", id)
	}
	for _, rec := range recs {
		var slice string
		var durNS int64
		switch {
		case rec.Op == profile.TraceAcquired && rec.WaitNS > 0:
			slice, durNS = "wait ", rec.WaitNS
		case rec.Op == profile.TraceRelease && rec.HoldNS > 0:
			slice, durNS = "hold ", rec.HoldNS
		default:
			continue
		}
		b.nameTrack(pidLocks, rec.TaskID, "locks", fmt.Sprintf("task %d", rec.TaskID))
		b.events = append(b.events, chromeEvent{
			Name: slice + name(rec.LockID), Ph: "X", Cat: "lock",
			TS: float64(rec.NowNS-durNS) / 1e3, Dur: float64(durNS) / 1e3,
			PID: pidLocks, TID: rec.TaskID,
			Args: map[string]any{"cpu": rec.CPU, "lock_id": rec.LockID},
		})
	}
}

// Len reports how many slice events have been added.
func (b *TraceBuilder) Len() int { return len(b.events) }

// Encode renders the accumulated events as Chrome trace JSON.
func (b *TraceBuilder) Encode(w io.Writer) error {
	all := make([]chromeEvent, 0, len(b.meta)+len(b.events))
	metaKeys := make([]string, 0, len(b.meta))
	for k := range b.meta {
		metaKeys = append(metaKeys, k)
	}
	sort.Strings(metaKeys)
	for _, k := range metaKeys {
		all = append(all, b.meta[k])
	}
	events := make([]chromeEvent, len(b.events))
	copy(events, b.events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	all = append(all, events...)
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     all,
		"displayTimeUnit": "ns",
	})
}

// JSON renders the accumulated events as a byte slice.
func (b *TraceBuilder) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
