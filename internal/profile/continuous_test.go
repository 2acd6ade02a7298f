package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
	"time"

	"concord/internal/locks"
)

// contend pushes one synthetic contended acquire/release pair through
// the profiler hooks at event time now.
func contend(h *locks.Hooks, lockID uint64, now, wait, hold int64, queue int) {
	ev := locks.Event{LockID: lockID, NowNS: now, WaitNS: wait, QueueLen: queue}
	if h.OnContended != nil {
		h.OnContended(&ev)
	}
	if h.OnAcquired != nil {
		h.OnAcquired(&ev)
	}
	rel := locks.Event{LockID: lockID, NowNS: now, HoldNS: hold}
	if h.OnRelease != nil {
		h.OnRelease(&rel)
	}
}

func TestContinuousWindowRotation(t *testing.T) {
	now := int64(0)
	c := NewContinuous(ContinuousConfig{
		SampleRate: 1,
		Window:     time.Millisecond,
		Clock:      func() int64 { return now },
	})
	c.SetEnabled(true)
	h := c.Hooks("shfllock")

	// First window: 4 contended acquisitions.
	for i := int64(0); i < 4; i++ {
		contend(h, 7, i*1000, 2000+i, 500, 3)
	}
	// Event past the epoch boundary rotates and publishes window 1.
	contend(h, 7, int64(2*time.Millisecond), 100, 50, 0)

	now = int64(2*time.Millisecond) + 1
	s, ok := c.SnapshotFor("shfllock")
	if !ok {
		t.Fatal("no snapshot after rotation")
	}
	if s.Acqs != 4 || s.Conts != 4 || s.Rels != 4 {
		t.Fatalf("window counts = %+v, want 4/4/4", s)
	}
	if s.ContentionPerMille != 1000 {
		t.Errorf("ContentionPerMille = %d, want 1000", s.ContentionPerMille)
	}
	if s.WaitP99NS < 2000 || s.WaitMaxNS < 2000 {
		t.Errorf("wait stats missing window samples: %+v", s)
	}
	if s.QueueMax != 3 || s.QueueMeanX100 != 300 {
		t.Errorf("queue stats = max %d meanx100 %d, want 3/300", s.QueueMax, s.QueueMeanX100)
	}
	if s.SampleRate != 1 || s.Samples != 4 {
		t.Errorf("sample accounting = rate %d samples %d", s.SampleRate, s.Samples)
	}

	// The lock_stats_read backing reader sees the same completed window.
	read := c.StatReader(7, "shfllock")
	if got := read(FieldContentionPerMille); got != 1000 {
		t.Errorf("StatReader(contention) = %d, want 1000", got)
	}
	if got := read(FieldQueueMax); got != 3 {
		t.Errorf("StatReader(queue max) = %d, want 3", got)
	}
	if got := read(12345); got != 0 {
		t.Errorf("StatReader(unknown field) = %d, want 0", got)
	}
	c.SetEnabled(false)
	if got := read(FieldContentionPerMille); got != 0 {
		t.Errorf("StatReader while disarmed = %d, want 0", got)
	}
}

func TestContinuousPartialFirstWindow(t *testing.T) {
	now := int64(0)
	c := NewContinuous(ContinuousConfig{SampleRate: 1, Window: time.Second, Clock: func() int64 { return now }})
	c.SetEnabled(true)
	h := c.Hooks("l")
	contend(h, 1, 10, 100, 50, 1)
	now = 20
	snaps := c.Snapshots()
	if len(snaps) != 1 || snaps[0].Acqs != 1 {
		t.Fatalf("partial first window not reported: %+v", snaps)
	}
}

func TestContinuousSamplingScalesCounts(t *testing.T) {
	now := int64(0)
	c := NewContinuous(ContinuousConfig{SampleRate: 4, Window: time.Millisecond, Clock: func() int64 { return now }})
	c.SetEnabled(true)
	if c.SampleRate() != 4 {
		t.Fatalf("SampleRate = %d", c.SampleRate())
	}
	h := c.Hooks("l")
	// Sampling is randomized (per-thread RNG), so counts are binomial:
	// 8192 events at 1-in-4 -> mean 2048 samples, stddev ~39. The ±512
	// band is >13 sigma — statistically it cannot flake.
	const events, mean, band = 8192, 2048, 512
	for i := 0; i < events; i++ {
		ev := locks.Event{LockID: 1, NowNS: int64(i), WaitNS: 10}
		h.OnAcquired(&ev)
	}
	// Rotation happens inside a *sampled* event, so push enough events
	// past the epoch boundary that missing all of them is impossible
	// in practice (P = 0.75^256 ≈ 1e-32).
	for i := 0; i < 256; i++ {
		ev := locks.Event{LockID: 1, NowNS: int64(2 * time.Millisecond)}
		h.OnAcquired(&ev)
	}
	now = int64(2*time.Millisecond) + 1
	s, ok := c.SnapshotFor("l")
	if !ok {
		t.Fatal("no snapshot")
	}
	if s.Samples < mean-band || s.Samples > mean+band {
		t.Errorf("raw Samples = %d, want %d±%d (1-in-4 of %d)", s.Samples, mean, band, events)
	}
	if s.Acqs != 4*s.Samples {
		t.Errorf("scaled Acqs = %d, want 4×Samples = %d", s.Acqs, 4*s.Samples)
	}
}

func TestContinuousRateRoundsUpToPowerOfTwo(t *testing.T) {
	c := NewContinuous(ContinuousConfig{SampleRate: 100})
	if c.SampleRate() != 128 {
		t.Errorf("rate = %d, want 128", c.SampleRate())
	}
	if NewContinuous(ContinuousConfig{}).SampleRate() != DefaultSampleRate {
		t.Error("default rate wrong")
	}
}

// TestContinuousDisabledHookAllocFree pins the acceptance criterion:
// with profiling disabled the hook body is one atomic load — no
// allocation, no map access, no histogram update.
func TestContinuousDisabledHookAllocFree(t *testing.T) {
	c := NewContinuous(ContinuousConfig{})
	h := c.Hooks("l")
	ev := locks.Event{LockID: 1, NowNS: 1, WaitNS: 5, HoldNS: 5, QueueLen: 1}
	if a := testing.AllocsPerRun(1000, func() {
		h.OnContended(&ev)
		h.OnAcquired(&ev)
		h.OnRelease(&ev)
	}); a != 0 {
		t.Fatalf("disabled hooks allocate %v per run, want 0", a)
	}
	s, _ := c.SnapshotFor("l")
	if s.Acqs != 0 {
		t.Error("disabled hooks recorded events")
	}
}

// TestContinuousUnsampledHookAllocFree: enabled but between samples,
// the body is one atomic load plus one per-thread RNG draw. The rate
// is 2^30 so the odds of the RNG actually sampling (and allocating a
// first window) during the 3000 hook calls are ~3e-6.
func TestContinuousUnsampledHookAllocFree(t *testing.T) {
	c := NewContinuous(ContinuousConfig{SampleRate: 1 << 30})
	c.SetEnabled(true)
	h := c.Hooks("l")
	ev := locks.Event{LockID: 1, NowNS: 1, WaitNS: 5, HoldNS: 5, QueueLen: 1}
	if a := testing.AllocsPerRun(1000, func() {
		h.OnContended(&ev)
		h.OnAcquired(&ev)
		h.OnRelease(&ev)
	}); a != 0 {
		t.Fatalf("unsampled hooks allocate %v per run, want 0", a)
	}
}

func BenchmarkContinuousDisabledHook(b *testing.B) {
	c := NewContinuous(ContinuousConfig{})
	h := c.Hooks("l")
	ev := locks.Event{LockID: 1, NowNS: 1, WaitNS: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.OnAcquired(&ev)
	}
}

func BenchmarkContinuousEnabledUnsampled(b *testing.B) {
	c := NewContinuous(ContinuousConfig{SampleRate: 1 << 30})
	c.SetEnabled(true)
	h := c.Hooks("l")
	ev := locks.Event{LockID: 1, NowNS: 1, WaitNS: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.OnAcquired(&ev)
	}
}

func BenchmarkContinuousSampled(b *testing.B) {
	c := NewContinuous(ContinuousConfig{SampleRate: 1})
	c.SetEnabled(true)
	h := c.Hooks("l")
	ev := locks.Event{LockID: 1, NowNS: 1} // WaitNS 0: no stack capture
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.OnAcquired(&ev)
	}
}

func TestContinuousTopSites(t *testing.T) {
	// SiteRate 1 disables stack sub-sampling so counts are exact.
	c := NewContinuous(ContinuousConfig{SampleRate: 1, SiteRate: 1, Window: time.Millisecond})
	c.SetEnabled(true)
	h := c.Hooks("hot")
	for i := 0; i < 10; i++ {
		ev := locks.Event{LockID: 1, NowNS: int64(i), WaitNS: 1000}
		h.OnAcquired(&ev)
	}
	sites := c.TopSites()
	if len(sites) == 0 {
		t.Fatal("no call sites attributed")
	}
	s := sites[0]
	if s.Lock != "hot" || s.Count != 10 || s.DelayNS != 10*1000 {
		t.Fatalf("site = %+v", s)
	}
	if len(s.Frames) == 0 {
		t.Fatal("site has no symbolized frames")
	}
	joined := strings.Join(s.Frames, "\n")
	if !strings.Contains(joined, "TestContinuousTopSites") {
		t.Errorf("frames missing test caller:\n%s", joined)
	}
	var buf bytes.Buffer
	if err := c.Report(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hot#1", "wait-p99", "top contending call sites"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Report missing %q:\n%s", want, buf.String())
		}
	}
}

// --- pprof encoding ---

// miniProto decodes wire-type 0 and 2 fields of one protobuf message.
type miniProto struct {
	varints map[int][]uint64
	msgs    map[int][][]byte
}

func parseProto(t *testing.T, b []byte) miniProto {
	t.Helper()
	m := miniProto{varints: map[int][]uint64{}, msgs: map[int][][]byte{}}
	for len(b) > 0 {
		tag, n := varint(t, b)
		b = b[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := varint(t, b)
			b = b[n:]
			m.varints[field] = append(m.varints[field], v)
		case 2:
			l, n := varint(t, b)
			b = b[n:]
			if uint64(len(b)) < l {
				t.Fatalf("truncated field %d", field)
			}
			m.msgs[field] = append(m.msgs[field], b[:l])
			b = b[l:]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
	return m
}

func varint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	t.Fatal("bad varint")
	return 0, 0
}

func TestPprofProfileEncoding(t *testing.T) {
	now := int64(5_000_000)
	c := NewContinuous(ContinuousConfig{SampleRate: 4, SiteRate: 1, Window: time.Millisecond, Clock: func() int64 { return now }})
	c.SetEnabled(true)
	h := c.Hooks("hashmu")
	// Sampling is randomized; 256 events at 1-in-4 leave the no-sample
	// probability at 0.75^256 ≈ 1e-32, so "at least one sample" holds.
	for i := 0; i < 256; i++ {
		ev := locks.Event{LockID: 9, NowNS: int64(i), WaitNS: 2000}
		h.OnAcquired(&ev)
	}
	raw, err := c.PprofProfile()
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p := parseProto(t, plain)

	if len(p.msgs[1]) != 2 {
		t.Fatalf("sample_type count = %d, want 2", len(p.msgs[1]))
	}
	strs := make([]string, 0, len(p.msgs[6]))
	for _, b := range p.msgs[6] {
		strs = append(strs, string(b))
	}
	if strs[0] != "" {
		t.Errorf("string_table[0] = %q, want empty", strs[0])
	}
	table := strings.Join(strs, "|")
	for _, want := range []string{"contentions", "count", "delay", "nanoseconds", "lock", "hashmu", "TestPprofProfileEncoding"} {
		if !strings.Contains(table, want) {
			t.Errorf("string table missing %q", want)
		}
	}
	st0 := parseProto(t, p.msgs[1][0])
	if strs[st0.varints[1][0]] != "contentions" || strs[st0.varints[2][0]] != "count" {
		t.Errorf("sample_type[0] = %s/%s", strs[st0.varints[1][0]], strs[st0.varints[2][0]])
	}

	if len(p.msgs[2]) == 0 {
		t.Fatal("no samples")
	}
	samp := parseProto(t, p.msgs[2][0])
	if len(samp.varints[1]) == 0 {
		t.Error("sample has no locations")
	}
	vals := samp.varints[2]
	if len(vals) != 2 {
		t.Fatalf("sample values = %v, want [contentions delay]", vals)
	}
	// The raw sampled count is binomial, but the export contract is
	// exact: counts scaled by the rate (so divisible by 4, bounded by
	// the event total) and delay = count × the uniform 2000ns wait.
	if vals[0] == 0 || vals[0]%4 != 0 || vals[0] > 256*4 {
		t.Errorf("scaled contentions = %d, want nonzero multiple of 4 ≤ 1024", vals[0])
	}
	if vals[1] != vals[0]*2000 {
		t.Errorf("scaled delay = %d, want contentions×2000 = %d", vals[1], vals[0]*2000)
	}
	for _, id := range samp.varints[1] {
		found := false
		for _, lb := range p.msgs[4] {
			loc := parseProto(t, lb)
			if len(loc.varints[1]) > 0 && loc.varints[1][0] == id {
				found = true
				if len(loc.msgs[4]) == 0 {
					t.Errorf("location %d has no lines", id)
				}
			}
		}
		if !found {
			t.Errorf("sample references undefined location %d", id)
		}
	}
	if len(p.msgs[5]) == 0 {
		t.Error("no functions")
	}
	if got := p.varints[12]; len(got) != 1 || got[0] != 4 {
		t.Errorf("period = %v, want [4]", got)
	}
	if got := p.varints[9]; len(got) != 1 || got[0] != uint64(now) {
		t.Errorf("time_nanos = %v, want [%d]", got, now)
	}
	if len(p.msgs[11]) != 1 {
		t.Error("missing period_type")
	}
	if len(p.msgs[3]) != 1 {
		t.Error("missing mapping")
	}
}

func TestPprofProfileEmpty(t *testing.T) {
	c := NewContinuous(ContinuousConfig{})
	raw, err := c.PprofProfile()
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p := parseProto(t, plain)
	if len(p.msgs[1]) != 2 {
		t.Fatalf("empty profile still needs sample types, got %d", len(p.msgs[1]))
	}
	if len(p.msgs[2]) != 0 {
		t.Fatal("empty profile has samples")
	}
}

// TestContinuousSpeculativeReadsJoinWindows checks the window arithmetic
// of ObserveSpeculativeReads at an exact and a sampled rate: a lock's own
// count of validated speculative reads joins the window it was counted
// in, as read acquisitions, within one sample of the truth — while
// Samples, the contention count and a lock without a source read as they
// always did.
func TestContinuousSpeculativeReadsJoinWindows(t *testing.T) {
	for _, rate := range []int64{1, 64} {
		now := int64(0)
		c := NewContinuous(ContinuousConfig{SampleRate: int(rate), Window: time.Millisecond, Clock: func() int64 { return now }})
		c.SetEnabled(true)
		var counted uint64 // the lock's counter; this test is one goroutine
		const id, plainID = 9, 10
		h, plain := c.Hooks("rw"), c.Hooks("plain")
		w, wPlain := c.statsFor(id, "rw"), c.statsFor(plainID, "plain")

		// Contended writer acquisitions at event time at, to both locks,
		// until cond holds: sampling is random, so "until a sample opened
		// or sealed a window" is the only deterministic way to say it.
		writers := func(at int64, cond func() bool) {
			for !cond() {
				contend(h, id, at, 100, 50, 1)
				contend(plain, plainID, at, 100, 50, 1)
			}
		}
		near := func(what string, got, want int64) {
			t.Helper()
			if d := got - want; d < -rate || d > rate {
				t.Errorf("rate %d: %s = %d, want %d within one sample (%d)", rate, what, got, want, rate)
			}
		}

		counted = 500 // before registration: in no window
		c.ObserveSpeculativeReads(id, "rw", func() uint64 { return counted })
		counted += 300 // before the first window opened: in no window
		writers(0, func() bool { return w.cur.Load() != nil && wPlain.cur.Load() != nil })

		const n1, n2 = 6417, 1200
		counted += n1
		for i := 0; i < 10*int(rate); i++ {
			contend(h, id, 1000, 100, 50, 1)
		}

		// The partial view of the first window has the reads so far, and
		// looking does not take them out of the window.
		now = 2000
		for i := 0; i < 2; i++ {
			s, ok := c.SnapshotFor("rw")
			if !ok {
				t.Fatalf("rate %d: no partial snapshot", rate)
			}
			near("partial ReadAcqs", s.ReadAcqs, n1)
			near("partial Acqs", s.Acqs, n1+rate*s.Samples)
		}

		writers(int64(2*time.Millisecond), func() bool { return w.last.Load() != nil && wPlain.last.Load() != nil })
		raw := *w.last.Load()
		if want := (n1 + rate/2) / rate; raw.ReadAcqs != want || raw.Acqs != raw.Samples+want {
			t.Errorf("rate %d: raw window ReadAcqs %d Acqs %d with %d samples, want %d and %d",
				rate, raw.ReadAcqs, raw.Acqs, raw.Samples, want, raw.Samples+want)
		}
		if raw.ContentionPerMille != 1000*raw.Conts/raw.Acqs {
			t.Errorf("rate %d: ContentionPerMille %d from %d contentions in %d acquisitions",
				rate, raw.ContentionPerMille, raw.Conts, raw.Acqs)
		}
		if got, want := raw.Field(FieldReadShare), uint64(raw.ReadAcqs*1000/raw.Acqs); got != want {
			t.Errorf("rate %d: FieldReadShare = %d, want %d", rate, got, want)
		}
		now = int64(2*time.Millisecond) + 1
		s, _ := c.SnapshotFor("rw")
		near("exported ReadAcqs", s.ReadAcqs, n1)
		near("exported Acqs", s.Acqs, n1+rate*s.Samples)
		if rate == 1 {
			// Nothing is estimated at rate 1: the truth, exactly.
			m := s.Samples
			if s.ReadAcqs != n1 || s.Acqs != n1+m || s.ContentionPerMille != 1000*m/(n1+m) ||
				s.Field(FieldReadShare) != uint64(n1*1000/(n1+m)) {
				t.Errorf("rate 1: window %+v, want %d reads beside %d contended writers", s, n1, m)
			}
		}

		// A lock without a source: every acquisition it reports is a sample.
		if p := *wPlain.last.Load(); p.Acqs != p.Samples || p.ReadAcqs != 0 {
			t.Errorf("rate %d: window of a lock with no counter changed: %+v", rate, p)
		}

		// The next window gets the reads counted since the seal, no more.
		counted += n2
		writers(int64(4*time.Millisecond), func() bool { return w.last.Load().StartNS >= int64(2*time.Millisecond) })
		if got, want := w.last.Load().ReadAcqs, (n2+rate/2)/rate; got != want {
			t.Errorf("rate %d: second window ReadAcqs = %d, want %d", rate, got, want)
		}
	}
}
