package obs

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"concord/internal/profile"
)

// decodeTrace parses builder output into the generic trace-event shape.
func decodeTrace(t *testing.T, data []byte) []struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int64   `json:"pid"`
	TID  int64   `json:"tid"`
} {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int64   `json:"pid"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func TestTraceBuilderLockRecords(t *testing.T) {
	b := NewTraceBuilder()
	recs := []profile.TraceRecord{
		{Op: profile.TraceAcquired, NowNS: 1000, WaitNS: 400, LockID: 7, TaskID: 1, CPU: 3},
		{Op: profile.TraceRelease, NowNS: 2000, HoldNS: 1000, LockID: 7, TaskID: 1, CPU: 3},
		{Op: profile.TraceAcquire, NowNS: 500, LockID: 7, TaskID: 2},  // no slice
		{Op: profile.TraceAcquired, NowNS: 600, LockID: 7, TaskID: 2}, // zero wait: no slice
	}
	b.AddLockRecords(recs, func(id uint64) string {
		if id == 7 {
			return "mmap_sem"
		}
		return ""
	})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 slices", b.Len())
	}
	data, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, data)

	var wait, hold, meta int
	for _, ev := range events {
		switch {
		case ev.Ph == "M":
			meta++
		case ev.Name == "wait mmap_sem":
			wait++
			if ev.TS != 0.6 || ev.Dur != 0.4 { // [1000-400, 1000] ns in µs
				t.Errorf("wait slice at ts=%v dur=%v", ev.TS, ev.Dur)
			}
		case ev.Name == "hold mmap_sem":
			hold++
			if ev.TS != 1.0 || ev.Dur != 1.0 {
				t.Errorf("hold slice at ts=%v dur=%v", ev.TS, ev.Dur)
			}
		default:
			t.Errorf("unexpected event %+v", ev)
		}
	}
	if wait != 1 || hold != 1 {
		t.Errorf("wait=%d hold=%d, want 1/1", wait, hold)
	}
	if meta < 2 {
		t.Errorf("want process_name + thread_name metadata, got %d M events", meta)
	}
}

// TestTraceWellNested verifies the property Perfetto's track renderer
// requires: on any one track (pid, tid), slices either nest or are
// disjoint — no partial overlap.
func TestTraceWellNested(t *testing.T) {
	// Realistic stream: contended handoffs where task N's wait overlaps
	// task N-1's hold (fine: different tracks), plus back-to-back
	// wait/hold pairs per task (must be disjoint on one track).
	b := NewTraceBuilder()
	var recs []profile.TraceRecord
	now := int64(0)
	for round := 0; round < 20; round++ {
		for task := int64(1); task <= 4; task++ {
			wait := int64(300 * task)
			hold := int64(500)
			now += wait
			recs = append(recs, profile.TraceRecord{Op: profile.TraceAcquired, NowNS: now, WaitNS: wait, LockID: 1, TaskID: task})
			now += hold
			recs = append(recs, profile.TraceRecord{Op: profile.TraceRelease, NowNS: now, HoldNS: hold, LockID: 1, TaskID: task})
		}
	}
	b.AddLockRecords(recs, nil)
	data, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, data)

	type track struct{ pid, tid int64 }
	type slice struct{ start, end int64 }
	byTrack := map[track][]slice{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		k := track{ev.PID, ev.TID}
		// Compare in integer nanoseconds: the µs floats carry rounding
		// noise far below the format's meaningful resolution.
		start := int64(math.Round(ev.TS * 1e3))
		end := start + int64(math.Round(ev.Dur*1e3))
		byTrack[k] = append(byTrack[k], slice{start, end})
	}
	if len(byTrack) != 4 {
		t.Fatalf("got %d tracks, want 4", len(byTrack))
	}
	for k, slices := range byTrack {
		sort.Slice(slices, func(i, j int) bool {
			if slices[i].start != slices[j].start {
				return slices[i].start < slices[j].start
			}
			return slices[i].end > slices[j].end
		})
		var stack []int64 // open slice end times
		for _, s := range slices {
			for len(stack) > 0 && stack[len(stack)-1] <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1] {
				t.Fatalf("track %+v: slice [%v,%v] partially overlaps enclosing slice ending %v",
					k, s.start, s.end, stack[len(stack)-1])
			}
			stack = append(stack, s.end)
		}
	}
}

func TestTraceBuilderEmpty(t *testing.T) {
	data, err := NewTraceBuilder().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if events := decodeTrace(t, data); len(events) != 0 {
		t.Errorf("empty builder produced %d events", len(events))
	}
}
