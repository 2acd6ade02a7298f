package profile

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/clock"
	"concord/internal/locks"
)

// Continuous profiler defaults.
const (
	// DefaultSampleRate is the default 1-in-N event sampling rate.
	DefaultSampleRate = 64
	// DefaultSiteRate is the default 1-in-M stack-capture rate *among
	// sampled* contended acquisitions. Stack capture (runtime.Callers
	// while the lock is held) costs roughly an order of magnitude more
	// than the window counters, so it is sub-sampled further.
	DefaultSiteRate = 8
	// DefaultWindow is the default epoch window length.
	DefaultWindow = time.Second
	// DefaultTopK is how many contending call sites reports keep per lock.
	DefaultTopK = 8

	// maxSiteDepth bounds the stack captured per contending call site.
	maxSiteDepth = 24
	// maxSitesPerLock bounds the call-site table of one lock; beyond it
	// new sites are dropped (counted in SiteOverflow).
	maxSitesPerLock = 256
	// siteSkip drops runtime.Callers, the recording helper, and the hook
	// closure, so the leaf frame is the lock-internal caller of the hook.
	siteSkip = 3
)

// ContinuousConfig configures a Continuous profiler. Zero values take
// the defaults above.
type ContinuousConfig struct {
	// SampleRate records 1 in SampleRate lock events (in expectation);
	// it is rounded up to a power of two so the sampling decision is
	// one masked draw from the per-thread RNG.
	SampleRate int
	// SiteRate captures the caller stack on 1 in SiteRate *sampled*
	// contended acquisitions (also rounded up to a power of two;
	// default DefaultSiteRate). Site counts and delays are scaled by
	// SampleRate×SiteRate on export. 1 records a stack on every
	// sampled contention.
	SiteRate int
	// Window is the epoch length; windowed statistics ("recent"
	// contention rate, p50/p99 wait, hold time, queue depth) cover the
	// last completed window.
	Window time.Duration
	// TopK is how many contending call sites text reports keep per lock.
	TopK int
	// Clock overrides clock.NowNS for read-side staleness checks
	// and export timestamps (tests). Event timestamps come from the lock
	// events themselves.
	Clock func() int64
}

// Continuous is the sampled, epoch-windowed continuous profiler: the
// always-on complement of the attach-on-demand Profiler. It is designed
// to be composed into every lock's hook chain and left enabled in
// production:
//
//   - Disabled (or between samples) the hook body is a single atomic
//     load (plus one masked per-thread RNG draw when enabled), no
//     allocation and no shared writes.
//   - Sampled events update the current epoch window: acquisition and
//     contention counters, wait/hold histograms, waiter-queue depth.
//   - Windows rotate lazily on event time; the last completed window is
//     published as an immutable WindowSnapshot read by exporters, by
//     `concordctl top`, and by the lock_stats_read policy helper.
//   - Sampled contended acquisitions also attribute their caller stack,
//     feeding the pprof contention profile and the top-K site report.
type Continuous struct {
	mask     uint64
	rate     int64
	siteMask uint64
	siteRate int64
	winNS    int64
	topK     int
	clock    func() int64

	startNS int64

	enabled atomic.Bool

	mu    sync.Mutex
	stats map[uint64]*Windowed
	byLoc map[string]*Windowed // name -> stats, for pre-registration
	hooks map[string]*locks.Hooks
}

// NewContinuous returns a continuous profiler. It starts disabled;
// call SetEnabled(true) to arm sampling.
func NewContinuous(cfg ContinuousConfig) *Continuous {
	rate := cfg.SampleRate
	if rate <= 0 {
		rate = DefaultSampleRate
	}
	// Round up to a power of two so sampling is rand()&mask == 0.
	pow := 1
	for pow < rate {
		pow <<= 1
	}
	siteRate := cfg.SiteRate
	if siteRate <= 0 {
		siteRate = DefaultSiteRate
	}
	sitePow := 1
	for sitePow < siteRate {
		sitePow <<= 1
	}
	win := cfg.Window
	if win <= 0 {
		win = DefaultWindow
	}
	topK := cfg.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}
	now := cfg.Clock
	if now == nil {
		now = clock.NowNS
	}
	return &Continuous{
		mask:     uint64(pow - 1),
		rate:     int64(pow),
		siteMask: uint64(sitePow - 1),
		siteRate: int64(sitePow),
		winNS:    int64(win),
		topK:     topK,
		clock:    now,
		startNS:  now(),
		stats:    make(map[uint64]*Windowed),
		byLoc:    make(map[string]*Windowed),
		hooks:    make(map[string]*locks.Hooks),
	}
}

// SetEnabled arms or disarms sampling. Disarmed hooks cost one atomic
// load per event.
func (c *Continuous) SetEnabled(on bool) { c.enabled.Store(on) }

// Enabled reports whether sampling is armed.
func (c *Continuous) Enabled() bool { return c.enabled.Load() }

// SampleRate returns the effective (power-of-two) 1-in-N rate.
func (c *Continuous) SampleRate() int64 { return c.rate }

// Window returns the epoch window length.
func (c *Continuous) Window() time.Duration { return time.Duration(c.winNS) }

// sample is the per-event gate: one atomic load when disarmed, plus a
// draw from the per-thread runtime RNG when armed. Randomized sampling
// is deliberate, for two reasons a deterministic 1-in-N counter fails:
// a shared counter is an atomic RMW on one cache line from every
// worker — coherence traffic inside the lock's serialized region —
// and lock traffic is close to periodic (acquired, release, acquired,
// release, …), so a power-of-two-masked counter phase-locks with the
// stream and can systematically sample only one event type.
// rand.Uint64 uses per-thread state: no shared writes, no aliasing.
func (c *Continuous) sample() bool {
	if !c.enabled.Load() {
		return false
	}
	return rand.Uint64()&c.mask == 0
}

// statsFor returns (creating if needed) the windowed stats of one lock.
func (c *Continuous) statsFor(id uint64, name string) *Windowed {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.stats[id]
	if w == nil {
		w = &Windowed{LockID: id, Name: name, winNS: c.winNS, rate: c.rate, sites: make(map[uint64]*callSite)}
		c.stats[id] = w
		c.byLoc[name] = w
	}
	return w
}

// Hooks builds (and memoizes per lock name) the hook table recording
// into this profiler. OnAcquire is deliberately nil: windowed
// acquisition counts come from OnAcquired, which also carries WaitNS,
// QueueLen, and Reader, so the hot acquire edge stays hook-free.
func (c *Continuous) Hooks(lockName string) *locks.Hooks {
	c.mu.Lock()
	if h := c.hooks[lockName]; h != nil {
		c.mu.Unlock()
		return h
	}
	c.mu.Unlock()

	var cached atomic.Pointer[Windowed]
	get := func(ev *locks.Event) *Windowed {
		if w := cached.Load(); w != nil && w.LockID == ev.LockID {
			return w
		}
		w := c.statsFor(ev.LockID, lockName)
		cached.Store(w)
		return w
	}
	h := &locks.Hooks{
		Name: "cprofile",
		OnContended: func(ev *locks.Event) {
			if !c.sample() {
				return
			}
			w := get(ev)
			w.rotate(ev.NowNS).conts.Add(1)
		},
		OnAcquired: func(ev *locks.Event) {
			if !c.sample() {
				return
			}
			w := get(ev)
			win := w.rotate(ev.NowNS)
			win.acqs.Add(1)
			if ev.Reader {
				win.reads.Add(1)
			}
			win.wait.Record(ev.WaitNS)
			q := int64(ev.QueueLen)
			win.qsum.Add(q)
			for {
				m := win.qmax.Load()
				if q <= m || win.qmax.CompareAndSwap(m, q) {
					break
				}
			}
			// Stack capture runs while the caller holds the lock, so it
			// is sub-sampled a further 1-in-siteRate beyond the window
			// sampling above; exports scale sites by rate×siteRate.
			if ev.WaitNS > 0 && rand.Uint64()&c.siteMask == 0 {
				w.recordSite(ev.WaitNS)
			}
		},
		OnRelease: func(ev *locks.Event) {
			if !c.sample() {
				return
			}
			w := get(ev)
			win := w.rotate(ev.NowNS)
			win.rels.Add(1)
			win.hold.Record(ev.HoldNS)
		},
	}
	c.mu.Lock()
	if prev := c.hooks[lockName]; prev != nil {
		h = prev // racing builder won; keep one table per lock name
	} else {
		c.hooks[lockName] = h
	}
	c.mu.Unlock()
	return h
}

// StatReader pre-registers a lock and returns the closure backing the
// lock_stats_read policy helper for it: field -> value from the last
// completed window, 0 while profiling is disarmed or before the first
// window completes. The read path is two atomic loads; it never takes
// the profiler mutex.
func (c *Continuous) StatReader(lockID uint64, lockName string) func(field uint64) uint64 {
	w := c.statsFor(lockID, lockName)
	return func(field uint64) uint64 {
		if !c.enabled.Load() {
			return 0
		}
		s := w.last.Load()
		if s == nil {
			return 0
		}
		return s.Field(field)
	}
}

// ObserveSpeculativeReads gives one lock's windows a second source of
// read acquisitions: read is the lock's own exact, monotone count of
// validated speculative read sections (locks.OCCStats.Reads), which raise
// no event for the hooks above to sample. Each window includes the reads
// counted between its opening and its sealing; reads counted before this
// call, or before the lock's first window opened, are in none. A second
// call for the same lock replaces the source and starts counting afresh.
//
// read runs under the window's rotation mutex, possibly inside a hook of
// the very lock it reads, so it must take no lock and raise no event.
func (c *Continuous) ObserveSpeculativeReads(lockID uint64, lockName string, read func() uint64) {
	w := c.statsFor(lockID, lockName)
	w.mu.Lock()
	w.specRead = read
	w.specAt = read()
	w.mu.Unlock()
}

// Windowed holds one lock's epoch-windowed statistics plus its
// cumulative contending call sites.
type Windowed struct {
	LockID uint64
	Name   string
	winNS  int64
	rate   int64 // the profiler's 1-in-rate sampling, for finalize

	cur  atomic.Pointer[window]
	last atomic.Pointer[WindowSnapshot]

	mu           sync.Mutex // rotation, site-table inserts, spec*
	sites        map[uint64]*callSite
	siteOverflow atomic.Int64

	// specRead is the lock's speculative-read counter, nil for a lock
	// without one; specAt is its reading when the current window opened
	// (or when the source was registered, if that came later).
	specRead func() uint64
	specAt   uint64
}

// specDelta reads the speculative-read counter and returns the reading
// with the reads counted since specAt. Called with w.mu held.
func (w *Windowed) specDelta() (now uint64, delta int64) {
	if w.specRead == nil {
		return 0, 0
	}
	now = w.specRead()
	return now, int64(now - w.specAt)
}

// window is the mutable current epoch.
type window struct {
	startNS int64

	acqs  atomic.Int64
	conts atomic.Int64
	rels  atomic.Int64
	reads atomic.Int64
	qsum  atomic.Int64
	qmax  atomic.Int64
	wait  Histogram
	hold  Histogram
}

// rotate returns the window owning event time now, finalizing and
// publishing the previous window when the epoch rolled over. The fast
// path (current window still live) is one atomic pointer load.
func (w *Windowed) rotate(now int64) *window {
	win := w.cur.Load()
	if win != nil && now-win.startNS < w.winNS {
		return win
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	win = w.cur.Load()
	if win != nil && now-win.startNS < w.winNS {
		return win
	}
	fresh := &window{startNS: now}
	// One reading of the lock's counter both closes the old window and
	// opens the new one, so no speculative read falls between windows.
	at, spec := w.specDelta()
	w.specAt = at
	if win != nil {
		snap := w.finalize(win, now, spec)
		w.last.Store(&snap)
	}
	w.cur.Store(fresh)
	return fresh
}

// finalize turns a closed window into an immutable snapshot of raw
// sampled counts; exports scale them back up by the sampling rate
// (WindowSnapshot.scale). spec is the lock-counted speculative reads of
// the window: an exact count beside 1-in-rate samples, so it joins Acqs
// and ReadAcqs divided by the rate, rounded to the nearest sample — the
// raw window keeps one unit, and scale, Field and the JSON need not know
// a second source exists. Samples, the wait and hold histograms and the
// queue depths describe sampled acquisitions only.
func (w *Windowed) finalize(win *window, endNS, spec int64) WindowSnapshot {
	wait := win.wait.Snapshot()
	hold := win.hold.Snapshot()
	s := WindowSnapshot{
		LockID:   w.LockID,
		Lock:     w.Name,
		StartNS:  win.startNS,
		EndNS:    endNS,
		Samples:  wait.Count,
		Acqs:     win.acqs.Load(),
		Conts:    win.conts.Load(),
		Rels:     win.rels.Load(),
		ReadAcqs: win.reads.Load(),

		WaitP50NS:  wait.Percentile(50),
		WaitP99NS:  wait.Percentile(99),
		WaitMeanNS: wait.Mean(),
		WaitMaxNS:  wait.Max,
		HoldP50NS:  hold.Percentile(50),
		HoldP99NS:  hold.Percentile(99),
		HoldMeanNS: hold.Mean(),
		HoldMaxNS:  hold.Max,

		QueueMax: win.qmax.Load(),
	}
	specSamples := (spec + w.rate/2) / w.rate
	s.Acqs += specSamples
	s.ReadAcqs += specSamples
	if s.Acqs > 0 {
		s.ContentionPerMille = 1000 * s.Conts / s.Acqs
		s.QueueMeanX100 = 100 * win.qsum.Load() / s.Acqs
	}
	return s
}

// callSite is one sampled contending call stack (cumulative, like a Go
// runtime mutex-profile bucket).
type callSite struct {
	pcs   []uintptr
	count atomic.Int64 // sampled contended acquisitions
	delay atomic.Int64 // sampled wait ns
}

// recordSite attributes one sampled contended acquisition to its caller
// stack. Only the first sighting of a stack takes the mutex beyond the
// map read; known sites update two atomics.
func (w *Windowed) recordSite(waitNS int64) {
	var pcs [maxSiteDepth]uintptr
	n := runtime.Callers(siteSkip, pcs[:])
	if n == 0 {
		return
	}
	h := hashPCs(pcs[:n])
	w.mu.Lock()
	s := w.sites[h]
	if s == nil {
		if len(w.sites) >= maxSitesPerLock {
			w.mu.Unlock()
			w.siteOverflow.Add(1)
			return
		}
		s = &callSite{pcs: append([]uintptr(nil), pcs[:n]...)}
		w.sites[h] = s
	}
	w.mu.Unlock()
	s.count.Add(1)
	s.delay.Add(waitNS)
}

// hashPCs is FNV-1a over the program counters.
func hashPCs(pcs []uintptr) uint64 {
	h := uint64(14695981039346656037)
	for _, pc := range pcs {
		for i := 0; i < 8; i++ {
			h ^= uint64(pc>>uint(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// WindowSnapshot is one lock's last completed profiling window.
// Acquisitions/Contentions/Releases/ReadAcqs are scaled back up by the
// sampling rate in exported snapshots; Samples stays raw so consumers
// can judge how well-populated the window was.
type WindowSnapshot struct {
	LockID  uint64 `json:"lock_id"`
	Lock    string `json:"lock"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`

	SampleRate int64 `json:"sample_rate"`
	Samples    int64 `json:"samples"`

	Acqs     int64 `json:"acquisitions"`
	Conts    int64 `json:"contentions"`
	Rels     int64 `json:"releases"`
	ReadAcqs int64 `json:"read_acquisitions"`

	ContentionPerMille int64 `json:"contention_per_mille"`

	WaitP50NS  int64 `json:"wait_p50_ns"`
	WaitP99NS  int64 `json:"wait_p99_ns"`
	WaitMeanNS int64 `json:"wait_mean_ns"`
	WaitMaxNS  int64 `json:"wait_max_ns"`

	HoldP50NS  int64 `json:"hold_p50_ns"`
	HoldP99NS  int64 `json:"hold_p99_ns"`
	HoldMeanNS int64 `json:"hold_mean_ns"`
	HoldMaxNS  int64 `json:"hold_max_ns"`

	QueueMax      int64 `json:"queue_max"`
	QueueMeanX100 int64 `json:"queue_mean_x100"`
}

// Field IDs readable by the lock_stats_read policy helper. The helper
// passes the raw field number through the VM, so these constants are
// the ABI between policies and the profiler.
const (
	FieldContentionPerMille uint64 = 0 // contended acquisitions per 1000
	FieldWaitP50NS          uint64 = 1
	FieldWaitP99NS          uint64 = 2
	FieldHoldP50NS          uint64 = 3
	FieldHoldP99NS          uint64 = 4
	FieldQueueMax           uint64 = 5
	FieldAcquisitions       uint64 = 6 // scaled by sampling rate
	FieldContentions        uint64 = 7 // scaled by sampling rate
	FieldWaitMeanNS         uint64 = 8
	FieldHoldMeanNS         uint64 = 9
	FieldReadAcqs           uint64 = 10 // scaled by sampling rate
	// FieldReadShare is the read fraction of the window's acquisitions,
	// in per-mille — the promotion signal for the optimistic read tier
	// (occ-gate.pol), precomputed here so policies need no division.
	FieldReadShare uint64 = 11
)

// Field returns one windowed signal by lock_stats_read field ID, 0 for
// unknown fields (policies probing newer fields degrade gracefully).
func (s *WindowSnapshot) Field(f uint64) uint64 {
	switch f {
	case FieldContentionPerMille:
		return uint64(s.ContentionPerMille)
	case FieldWaitP50NS:
		return uint64(s.WaitP50NS)
	case FieldWaitP99NS:
		return uint64(s.WaitP99NS)
	case FieldHoldP50NS:
		return uint64(s.HoldP50NS)
	case FieldHoldP99NS:
		return uint64(s.HoldP99NS)
	case FieldQueueMax:
		return uint64(s.QueueMax)
	case FieldAcquisitions:
		return uint64(s.Acqs)
	case FieldContentions:
		return uint64(s.Conts)
	case FieldWaitMeanNS:
		return uint64(s.WaitMeanNS)
	case FieldHoldMeanNS:
		return uint64(s.HoldMeanNS)
	case FieldReadAcqs:
		return uint64(s.ReadAcqs)
	case FieldReadShare:
		if s.Acqs <= 0 {
			return 0
		}
		share := s.ReadAcqs * 1000 / s.Acqs
		if share < 0 {
			return 0
		}
		if share > 1000 {
			share = 1000 // saturate against sampling skew
		}
		return uint64(share)
	}
	return 0
}

// scale multiplies the sampled event counts back up by the sampling
// rate and stamps the rate, producing the exported view.
func (s WindowSnapshot) scale(rate int64) WindowSnapshot {
	s.SampleRate = rate
	s.Acqs = satMul(s.Acqs, rate)
	s.Conts = satMul(s.Conts, rate)
	s.Rels = satMul(s.Rels, rate)
	s.ReadAcqs = satMul(s.ReadAcqs, rate)
	return s
}

// snapshotAt returns the lock's freshest window view at time now:
// rotating first if the current window expired, then preferring the
// last completed window, and falling back to a live partial snapshot
// during the very first window so short runs still report. The partial
// view includes the speculative reads counted so far and leaves them in
// the window.
func (w *Windowed) snapshotAt(now int64) (WindowSnapshot, bool) {
	if win := w.cur.Load(); win != nil && now-win.startNS >= w.winNS {
		w.rotate(now)
	}
	if s := w.last.Load(); s != nil {
		return *s, true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	win := w.cur.Load()
	if win == nil {
		return WindowSnapshot{LockID: w.LockID, Lock: w.Name}, false
	}
	_, spec := w.specDelta()
	return w.finalize(win, now, spec), true
}

// Snapshots returns the freshest window snapshot of every profiled
// lock, scaled to estimated true event counts, sorted by windowed
// contention rate then lock ID.
func (c *Continuous) Snapshots() []WindowSnapshot {
	now := c.clock()
	c.mu.Lock()
	ws := make([]*Windowed, 0, len(c.stats))
	for _, w := range c.stats {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	out := make([]WindowSnapshot, 0, len(ws))
	for _, w := range ws {
		s, ok := w.snapshotAt(now)
		if !ok {
			continue
		}
		out = append(out, s.scale(c.rate))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ContentionPerMille != out[j].ContentionPerMille {
			return out[i].ContentionPerMille > out[j].ContentionPerMille
		}
		return out[i].LockID < out[j].LockID
	})
	return out
}

// SnapshotFor returns the freshest scaled window of one lock by name.
func (c *Continuous) SnapshotFor(lockName string) (WindowSnapshot, bool) {
	c.mu.Lock()
	w := c.byLoc[lockName]
	c.mu.Unlock()
	if w == nil {
		return WindowSnapshot{}, false
	}
	s, ok := w.snapshotAt(c.clock())
	if !ok {
		return WindowSnapshot{}, false
	}
	return s.scale(c.rate), true
}

// SiteReport is one contending call site, resolved to symbols.
type SiteReport struct {
	Lock    string   `json:"lock"`
	LockID  uint64   `json:"lock_id"`
	Count   int64    `json:"count"`    // scaled contended acquisitions
	DelayNS int64    `json:"delay_ns"` // scaled cumulative wait
	Frames  []string `json:"frames"`   // leaf first, "func file:line"
	pcs     []uintptr
}

// TopSites returns the top-K contending call sites per lock (scaled by
// the sampling rate), most delay first.
func (c *Continuous) TopSites() []SiteReport {
	c.mu.Lock()
	ws := make([]*Windowed, 0, len(c.stats))
	for _, w := range c.stats {
		ws = append(ws, w)
	}
	c.mu.Unlock()

	var out []SiteReport
	for _, w := range ws {
		w.mu.Lock()
		sites := make([]*callSite, 0, len(w.sites))
		for _, s := range w.sites {
			sites = append(sites, s)
		}
		w.mu.Unlock()
		sort.Slice(sites, func(i, j int) bool {
			di, dj := sites[i].delay.Load(), sites[j].delay.Load()
			if di != dj {
				return di > dj
			}
			return sites[i].count.Load() > sites[j].count.Load()
		})
		if len(sites) > c.topK {
			sites = sites[:c.topK]
		}
		for _, s := range sites {
			out = append(out, SiteReport{
				Lock:    w.Name,
				LockID:  w.LockID,
				Count:   satMul(s.count.Load(), c.rate*c.siteRate),
				DelayNS: satMul(s.delay.Load(), c.rate*c.siteRate),
				Frames:  symbolize(s.pcs),
				pcs:     s.pcs,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DelayNS != out[j].DelayNS {
			return out[i].DelayNS > out[j].DelayNS
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

// symbolize resolves program counters to "func file:line" strings,
// expanding inlined frames.
func symbolize(pcs []uintptr) []string {
	if len(pcs) == 0 {
		return nil
	}
	frames := runtime.CallersFrames(pcs)
	var out []string
	for {
		fr, more := frames.Next()
		name := fr.Function
		if name == "" {
			name = fmt.Sprintf("0x%x", fr.PC)
		}
		out = append(out, fmt.Sprintf("%s %s:%d", name, fr.File, fr.Line))
		if !more {
			break
		}
	}
	return out
}

// Report writes the windowed table plus the top contending call sites —
// the `concordctl profile -top` payload.
func (c *Continuous) Report(w io.Writer) error {
	snaps := c.Snapshots()
	if _, err := fmt.Fprintf(w, "window=%s sample=1/%d\n", c.Window(), c.rate); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %10s %10s %8s %12s %12s %12s %12s %6s\n",
		"lock", "acq/win", "cont/win", "cont‰", "wait-p50", "wait-p99", "hold-p50", "hold-p99", "qmax"); err != nil {
		return err
	}
	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "%-24s %10d %10d %8d %12s %12s %12s %12s %6d\n",
			fmt.Sprintf("%s#%d", s.Lock, s.LockID),
			s.Acqs, s.Conts, s.ContentionPerMille,
			fmtNS(s.WaitP50NS), fmtNS(s.WaitP99NS),
			fmtNS(s.HoldP50NS), fmtNS(s.HoldP99NS), s.QueueMax); err != nil {
			return err
		}
	}
	sites := c.TopSites()
	if len(sites) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\ntop contending call sites (cumulative, sampled 1/%d):\n", c.rate); err != nil {
		return err
	}
	for _, s := range sites {
		if _, err := fmt.Fprintf(w, "%-24s x%-8d delay=%s\n", s.Lock, s.Count, fmtNS(s.DelayNS)); err != nil {
			return err
		}
		for _, fr := range s.Frames {
			if _, err := fmt.Fprintf(w, "    %s\n", fr); err != nil {
				return err
			}
		}
	}
	return nil
}
