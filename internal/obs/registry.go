// Package obs is the unified telemetry layer: a lock-free metrics
// registry (labeled counters, gauges, and log2 latency histograms
// generalizing profile.Histogram), Prometheus-text and JSON exposition,
// an embeddable HTTP server (/metrics, /locks, /policies, /trace plus
// net/http/pprof), and a Chrome/Perfetto trace-event exporter that turns
// profile.TraceRing snapshots into loadable timelines.
//
// The paper's §3.2 pitch is that C3 makes kernel locks observable on
// demand; obs extends that from per-lock wait/hold stats to every layer
// of the reproduction: the policy VM, livepatch epochs and framework
// safety checks. Metric creation takes a registry mutex (setup path);
// every update on the hot path is a plain atomic, so instrumentation
// composes with user policies without lock-ordering hazards.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"concord/internal/profile"
)

// MetricKind classifies a metric family for exposition.
type MetricKind int

// The metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer (the JSON exposition's "type" field).
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Bump adds one and returns the new value, for callers that also use
// the counter as a cheap sequence (e.g. trace sampling).
func (c *Counter) Bump() int64 { return c.v.Add(1) }

// Add adds delta (negative deltas are ignored: counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is the registry-managed profile.Histogram, embedded: same
// buckets, same atomics, and Snapshot its one read path.
type Histogram struct {
	profile.Histogram
}

// Observe records one sample (nanoseconds).
func (h *Histogram) Observe(ns int64) { h.Record(ns) }

// Sample is one externally collected metric point, merged into the
// exposition at scrape time. Externals let subsystems that already keep
// their own atomic counters (the policy VM's per-program ExecStats, the
// trace ring's loss counter) surface them without double accounting.
type Sample struct {
	Name   string
	Kind   MetricKind
	Labels []string // alternating key, value
	Value  float64
}

// family groups every labeled series of one metric name.
type family struct {
	name string
	help string
	kind MetricKind

	mu     sync.Mutex
	series map[string]*series // canonical label string -> series
}

type series struct {
	labels string // canonical {k="v",...} form, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families. Creation methods are safe for
// concurrent use and idempotent: the same (name, labels) always returns
// the same metric instance. Instrumentation should look its metrics up
// once and hold the pointers; updates are then single atomic operations.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	externals []func(add func(Sample))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelString canonicalizes alternating key/value pairs. Panics on an
// odd count — label sets are compile-time shapes, not runtime data.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	parts := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", labels[i], escapeLabel(labels[i+1])))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func (r *Registry) familyFor(name, help string, kind MetricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", name, kind, f.kind))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

func (f *family) seriesFor(labels []string) *series {
	key := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch f.kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns (creating if needed) the counter name{labels...}.
// Labels are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.familyFor(name, help, KindCounter).seriesFor(labels).c
}

// Gauge returns (creating if needed) the gauge name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.familyFor(name, help, KindGauge).seriesFor(labels).g
}

// Histogram returns (creating if needed) the histogram name{labels...}.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.familyFor(name, help, KindHistogram).seriesFor(labels).h
}

// AddExternal registers a collector invoked at exposition time. The
// collector calls add once per sample; samples must be counters or
// gauges (histograms must live in the registry).
func (r *Registry) AddExternal(fn func(add func(Sample))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.externals = append(r.externals, fn)
}

// snapshot returns families sorted by name with series sorted by label
// string, externals merged in — the exposition order of both formats.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	externals := make([]func(add func(Sample)), len(r.externals))
	copy(externals, r.externals)
	r.mu.Unlock()

	// Externals are merged through throwaway families so both exporters
	// see one uniform shape.
	ext := make(map[string]*family)
	for _, fn := range externals {
		fn(func(s Sample) {
			if s.Kind == KindHistogram {
				return // histograms must live in the registry
			}
			f := ext[s.Name]
			if f == nil {
				f = &family{name: s.Name, kind: s.Kind, series: make(map[string]*series)}
				ext[s.Name] = f
			}
			sr := f.seriesFor(s.Labels)
			switch s.Kind {
			case KindCounter:
				sr.c.Add(int64(s.Value))
			case KindGauge:
				sr.g.Set(int64(s.Value))
			}
		})
	}
	taken := make(map[string]bool, len(fams))
	for _, f := range fams {
		taken[f.name] = true
	}
	for name, f := range ext {
		if !taken[name] {
			fams = append(fams, f)
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series sorted by label string.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
