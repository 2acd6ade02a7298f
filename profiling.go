package concord

import (
	"math"

	"concord/internal/core"
	"concord/internal/profile"
)

// --- Profiling (§3.2) & flight recorder ---
//
// There is one profiler, attached in two scopes. Per lock instance
// (Framework.StartProfiling, ProfileAll) it answers "what is this lock
// doing", at full fidelity with NewProfiler's preset: every event, in a
// window that never closes. Framework-wide (WithContinuousProfiling) it
// answers the production question instead: sampled (1-in-N, one atomic
// check when disarmed), always on, windowed into rotating epochs so
// "recent" means the last window rather than since boot. Either way it
// attributes contending call sites, exportable as a pprof contention
// profile. The flight recorder closes the loop on failures: every
// supervisor trip captures a diagnostic bundle to disk.

// ContinuousProfiler is the sampled, epoch-windowed contention
// profiler; attach it to every lock with WithContinuousProfiling or
// Framework.EnableContinuousProfiling, or to chosen locks with
// Framework.StartProfiling.
type ContinuousProfiler = profile.Continuous

// ContinuousProfilerConfig configures sampling rate (rounded up to a
// power of two), stack-capture rate and window length. Reports keep
// the top 8 contending call sites per lock.
type ContinuousProfilerConfig = profile.ContinuousConfig

// WindowSnapshot is one lock's most recent profiling window: scaled
// event counts, contention rate, wait/hold percentiles, queue depth.
type WindowSnapshot = profile.WindowSnapshot

// SiteReport is one contending call site's attribution (pprof top row).
type SiteReport = profile.SiteReport

// DefaultSampleRate is the default 1-in-N sampling rate.
const DefaultSampleRate = profile.DefaultSampleRate

// NewContinuousProfiler builds a disarmed continuous profiler; call
// SetEnabled(true) (WithContinuousProfiling does) to start sampling.
func NewContinuousProfiler(cfg ContinuousProfilerConfig) *ContinuousProfiler {
	return profile.NewContinuous(cfg)
}

// NewProfiler returns the exact, armed preset for per-lock profiling:
// every event recorded, in one window that never closes, so a snapshot
// (SnapshotFor, Snapshots, Report) is the lock's cumulative profile.
// Call-site stacks, captured while the lock is held, are taken as often
// per event as at the sampled defaults (1 in 512 contended acquisitions):
// 1 in 8 cost the A7 hashtable 13 % of its profiled throughput. Attach
// it with Framework.StartProfiling.
func NewProfiler() *ContinuousProfiler {
	c := profile.NewContinuous(ContinuousProfilerConfig{
		SampleRate: 1,
		SiteRate:   profile.DefaultSampleRate * profile.DefaultSiteRate,
		Window:     math.MaxInt64,
	})
	c.SetEnabled(true)
	return c
}

// ErrNoContinuousProfiling is returned by profile exports when the
// framework was built without a continuous profiler.
var ErrNoContinuousProfiling = core.ErrNoContinuousProfiling

// WithContinuousProfiling enables sampled continuous contention
// profiling on a new framework, armed from the start:
//
//	fw := concord.New(topo,
//	        concord.WithTelemetry(),
//	        concord.WithContinuousProfiling(concord.ContinuousProfilerConfig{}))
//
// Every registered lock gets sampling-gated windowed statistics,
// policies can read them through the lock_stats_read helper, and the
// telemetry server (if any) serves the cumulative pprof contention
// profile at /debug/concord/contention.
func WithContinuousProfiling(cfg ContinuousProfilerConfig) Option {
	return func(f *Framework) {
		c := profile.NewContinuous(cfg)
		c.SetEnabled(true)
		f.EnableContinuousProfiling(c)
	}
}

// --- Flight recorder ---

// FlightRecorder captures a FlightBundle on every supervisor trip
// (breaker open, quarantine, watchdog fire, safety trip, drain
// timeout).
type FlightRecorder = core.FlightRecorder

// FlightRecorderConfig configures the bundle directory and retention.
type FlightRecorderConfig = core.FlightRecorderConfig

// FlightBundle is one captured diagnostic bundle: trip classification,
// trace-ring snapshot with embedded Perfetto timeline, profiling
// windows, map-plane stats, and the offending policy's disassembly and
// admission-time analysis.
type FlightBundle = core.FlightBundle

// FlightBundleSchema identifies the on-disk flight bundle format.
const FlightBundleSchema = core.FlightBundleSchema

// ReadFlightBundle loads and schema-checks one bundle file.
func ReadFlightBundle(path string) (*FlightBundle, error) {
	return core.ReadFlightBundle(path)
}

// ListFlightBundles returns a directory's bundle files in sequence
// order.
func ListFlightBundles(dir string) ([]string, error) {
	return core.ListFlightBundles(dir)
}

// WithFlightRecorder enables the flight recorder on a new framework,
// writing bundles under dir. Construction errors (unwritable dir)
// surface on the first capture via FlightRecorder.Err; use
// Framework.EnableFlightRecorder directly to handle them eagerly.
func WithFlightRecorder(dir string) Option {
	return func(f *Framework) {
		_, _ = f.EnableFlightRecorder(FlightRecorderConfig{Dir: dir})
	}
}
