package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"concord/internal/clock"
	"concord/internal/faultinject"
	"concord/internal/obs"
	"concord/internal/policy/analysis"
	"concord/internal/profile"
)

// FlightBundleSchema identifies the on-disk flight bundle format.
const FlightBundleSchema = "concord-flightrec/1"

// ErrNoFlightRecorder is returned by flight-recorder queries when none
// was enabled.
var ErrNoFlightRecorder = errors.New("concord: flight recorder not enabled")

// ErrSchedFuzz classifies failures detected by the schedule fuzzer
// (invariant violations, operational errors, or deadline trips under a
// fuzzed interleaving). Wrap it so classifyTrigger files the bundle
// under the "schedfuzz" trigger.
var ErrSchedFuzz = errors.New("concord: schedule fuzzer detected failure")

// FlightRecorderConfig configures the supervisor flight recorder.
type FlightRecorderConfig struct {
	// Dir is where bundles are written (created if missing).
	Dir string
	// MaxBundles prunes the oldest bundles beyond this count; 0 keeps
	// DefaultMaxBundles.
	MaxBundles int
	// Clock overrides clock.NowNS (tests).
	Clock func() int64
}

// DefaultMaxBundles bounds on-disk flight bundles when
// FlightRecorderConfig.MaxBundles is zero.
const DefaultMaxBundles = 32

// FlightBundle is the diagnostic state captured atomically when a
// supervisor trips: everything needed to reconstruct the incident
// offline — what fired, what the lock looked like, what the policy was
// and was proven to cost, and which injected faults were live.
type FlightBundle struct {
	Schema     string `json:"schema"`
	Seq        int64  `json:"seq"`
	CapturedNS int64  `json:"captured_ns"`

	Lock    string `json:"lock"`
	Policy  string `json:"policy"`
	Trigger string `json:"trigger"` // breaker-open | quarantine | watchdog | safety-trip | drain-timeout | schedfuzz
	Error   string `json:"error"`

	// SchedulePath points at the replayable schedule file for
	// schedfuzz-triggered bundles ("" otherwise).
	SchedulePath string `json:"schedule_path,omitempty"`
	// Goroutines is a full goroutine dump, captured when the trip was a
	// deadline (wedged run) rather than a returned error.
	Goroutines string `json:"goroutines,omitempty"`

	Breaker     string `json:"breaker"`
	Quarantined bool   `json:"quarantined"`
	Retries     int    `json:"retries"`
	SafetyTrips int    `json:"safety_trips"`
	Faults      int64  `json:"faults"`
	CostBoundNS int64  `json:"cost_bound_ns"`

	// Trace is the telemetry trace-ring snapshot at capture time (nil
	// without telemetry); TraceLost counts wrap-around evictions.
	Trace     []profile.TraceRecord `json:"trace,omitempty"`
	TraceLost int64                 `json:"trace_lost,omitempty"`
	// Perfetto embeds the same snapshot rendered as a loadable
	// Chrome/Perfetto timeline.
	Perfetto json.RawMessage `json:"perfetto,omitempty"`

	// Windows holds every profiled lock's freshest profiling window
	// (nil without continuous profiling).
	Windows []profile.WindowSnapshot `json:"windows,omitempty"`

	// Policies carries the loaded policies' VM counters and map-plane
	// stats (occupancy, collisions, optimistic retries).
	Policies []PolicyRow `json:"policies,omitempty"`

	// Disasm is the offending policy's per-kind disassembly; Analysis
	// the matching static-analysis reports it was admitted under.
	Disasm   map[string]string           `json:"disasm,omitempty"`
	Analysis map[string]*analysis.Report `json:"analysis,omitempty"`

	// FaultSites records every fault-injection site's cumulative fire
	// count, so injected and organic incidents are distinguishable.
	FaultSites map[string]int64 `json:"fault_sites,omitempty"`
}

// FlightRecorder captures FlightBundles on supervisor trips. Captures
// run on their own goroutine (trip paths hold supervisor state and must
// not block on disk I/O or framework locks); Wait flushes them, giving
// tests and shutdown a deterministic completion point.
type FlightRecorder struct {
	f     *Framework
	dir   string
	max   int
	clock func() int64

	seq atomic.Int64
	wg  sync.WaitGroup

	mu      sync.Mutex
	lastErr error
	files   []string
}

// EnableFlightRecorder arms the flight recorder: from now on every
// supervisor trip (breaker open, quarantine, watchdog fire, safety
// trip, drain timeout) writes a FlightBundle under cfg.Dir.
func (f *Framework) EnableFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, errors.New("concord: flight recorder needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("concord: flight recorder dir: %w", err)
	}
	max := cfg.MaxBundles
	if max <= 0 {
		max = DefaultMaxBundles
	}
	now := cfg.Clock
	if now == nil {
		now = clock.NowNS
	}
	fr := &FlightRecorder{f: f, dir: cfg.Dir, max: max, clock: now}
	f.mu.Lock()
	f.flight = fr
	f.mu.Unlock()
	return fr, nil
}

// FlightRecorder returns the recorder enabled on this framework, or nil.
func (f *Framework) FlightRecorder() *FlightRecorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flight
}

// Wait blocks until every in-flight capture has been written.
func (fr *FlightRecorder) Wait() { fr.wg.Wait() }

// Err returns the most recent capture error, if any.
func (fr *FlightRecorder) Err() error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.lastErr
}

// Bundles lists the bundle files written by this recorder, oldest
// first.
func (fr *FlightRecorder) Bundles() []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]string, len(fr.files))
	copy(out, fr.files)
	return out
}

// Dir returns the bundle directory.
func (fr *FlightRecorder) Dir() string { return fr.dir }

// tripSnapshot is the supervisor state passed into a capture, copied
// while the trip still holds its locks.
type tripSnapshot struct {
	lock        string
	policyName  string
	err         error
	quarantine  bool
	state       BreakerState
	retries     int
	safetyTrips int
	faults      int64
	costBound   int64

	schedulePath string
	goroutines   string
}

// classifyTrigger maps a trip error to the bundle trigger taxonomy.
func classifyTrigger(err error, quarantine bool) string {
	switch {
	case errors.Is(err, ErrSchedFuzz):
		return "schedfuzz"
	case errors.Is(err, ErrHookLatency):
		return "watchdog"
	case errors.Is(err, ErrSafetyTrip):
		return "safety-trip"
	case errors.Is(err, ErrDrainTimeout):
		return "drain-timeout"
	case quarantine:
		return "quarantine"
	default:
		return "breaker-open"
	}
}

// CaptureSchedFuzz schedules a bundle for a failure the schedule
// fuzzer detected: target identifies the fuzz target (filed in the
// Lock field), err is the detected failure, schedulePath the written
// replay file, and goroutines an optional goroutine dump (deadline
// trips). The bundle is classified under the "schedfuzz" trigger.
func (fr *FlightRecorder) CaptureSchedFuzz(target string, err error, schedulePath, goroutines string) {
	fr.capture(tripSnapshot{
		lock:         target,
		policyName:   "schedfuzz",
		err:          fmt.Errorf("%w: %w", ErrSchedFuzz, err),
		schedulePath: schedulePath,
		goroutines:   goroutines,
	})
}

// capture schedules one bundle write. Called from trip paths with
// supervisor (and possibly other) locks held: everything that needs a
// framework lock happens on the capture goroutine.
func (fr *FlightRecorder) capture(snap tripSnapshot) {
	fr.wg.Add(1)
	go func() {
		defer fr.wg.Done()
		fr.write(fr.collect(snap))
	}()
}

// collect assembles the bundle from the trip snapshot plus the
// framework's current diagnostic state.
func (fr *FlightRecorder) collect(snap tripSnapshot) *FlightBundle {
	f := fr.f
	b := &FlightBundle{
		Schema:     FlightBundleSchema,
		Seq:        fr.seq.Add(1),
		CapturedNS: fr.clock(),

		Lock:    snap.lock,
		Policy:  snap.policyName,
		Trigger: classifyTrigger(snap.err, snap.quarantine),

		Breaker:     snap.state.String(),
		Quarantined: snap.quarantine,
		Retries:     snap.retries,
		SafetyTrips: snap.safetyTrips,
		Faults:      snap.faults,
		CostBoundNS: snap.costBound,
	}
	if snap.err != nil {
		b.Error = snap.err.Error()
	}
	b.SchedulePath = snap.schedulePath
	b.Goroutines = snap.goroutines

	if tel := f.Telemetry(); tel != nil {
		b.Trace = tel.Ring.Snapshot()
		b.TraceLost = tel.Ring.Overwritten()
		tb := obs.NewTraceBuilder()
		tb.AddLockRecords(b.Trace, f.LockNameByID)
		var buf bytes.Buffer
		if err := tb.Encode(&buf); err == nil {
			b.Perfetto = json.RawMessage(buf.Bytes())
		}
	}
	b.Windows = f.WindowSnapshots()
	b.Policies = f.PolicyRows()

	if p, ok := f.Policy(snap.policyName); ok {
		b.Disasm = make(map[string]string, len(p.Programs))
		for kind, prog := range p.Programs {
			b.Disasm[kind.String()] = prog.String()
		}
		if len(p.Analysis) > 0 {
			b.Analysis = make(map[string]*analysis.Report, len(p.Analysis))
			for kind, rep := range p.Analysis {
				b.Analysis[kind.String()] = rep
			}
		}
	}

	sites := faultinject.Sites()
	b.FaultSites = make(map[string]int64, len(sites))
	for _, s := range sites {
		if n := s.Fires(); n > 0 {
			b.FaultSites[s.Name()] = n
		}
	}
	return b
}

// write persists the bundle atomically (tmp + rename) and prunes old
// bundles beyond the cap.
func (fr *FlightRecorder) write(b *FlightBundle) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fr.fail(err)
		return
	}
	name := fmt.Sprintf("flight-%06d-%s-%s.json", b.Seq, sanitizeName(b.Lock), b.Trigger)
	final := filepath.Join(fr.dir, name)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		fr.fail(err)
		return
	}
	if err := os.Rename(tmp, final); err != nil {
		fr.fail(err)
		return
	}
	fr.mu.Lock()
	// Captures run concurrently and finish in any order; names sort by
	// sequence number, so sorting keeps "oldest" meaning lowest seq.
	fr.files = append(fr.files, final)
	sort.Strings(fr.files)
	var prune []string
	if len(fr.files) > fr.max {
		n := len(fr.files) - fr.max
		prune = append(prune, fr.files[:n]...)
		fr.files = append(fr.files[:0:0], fr.files[n:]...)
	}
	fr.mu.Unlock()
	for _, p := range prune {
		os.Remove(p)
	}
}

func (fr *FlightRecorder) fail(err error) {
	fr.mu.Lock()
	fr.lastErr = err
	fr.mu.Unlock()
}

// sanitizeName keeps bundle file names filesystem-safe.
func sanitizeName(s string) string {
	if s == "" {
		return "unknown"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// ReadFlightBundle loads and validates one bundle file.
func ReadFlightBundle(path string) (*FlightBundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b FlightBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("concord: flight bundle %s: %w", path, err)
	}
	if b.Schema != FlightBundleSchema {
		return nil, fmt.Errorf("concord: flight bundle %s: schema %q, want %q", path, b.Schema, FlightBundleSchema)
	}
	return &b, nil
}

// ListFlightBundles returns the bundle files in a directory, sorted by
// file name (sequence order).
func ListFlightBundles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "flight-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}
