package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"concord/internal/profile"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms export cumulative buckets with the
// exact inclusive upper bounds of the log2 buckets, plus _sum, _count
// and a companion _max gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			var err error
			switch f.kind {
			case KindCounter:
				err = writeSample(w, f.name, s.labels, "", float64(s.c.Value()))
			case KindGauge:
				err = writeSample(w, f.name, s.labels, "", float64(s.g.Value()))
			case KindHistogram:
				err = writePromHistogram(w, f.name, s.labels, &s.h.Histogram)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample emits one exposition line, merging an extra label (used
// for histogram le) into the label set.
func writeSample(w io.Writer, name, labels, extra string, v float64) error {
	switch {
	case labels == "" && extra == "":
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return err
	case labels == "":
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, extra, formatValue(v))
		return err
	case extra == "":
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
		return err
	default:
		_, err := fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, formatValue(v))
		return err
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// writePromHistogram renders one histogram from a single snapshot, so
// _count always equals the +Inf bucket even while writers record.
func writePromHistogram(w io.Writer, name, labels string, h *profile.Histogram) error {
	s := h.Snapshot()
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		bound := profile.BucketUpperBound(i)
		le := fmt.Sprintf(`le="%d"`, bound)
		if i == len(s.Buckets)-1 {
			le = `le="+Inf"`
		}
		if err := writeSample(w, name+"_bucket", labels, le, float64(cum)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_sum", labels, "", float64(s.Sum)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_count", labels, "", float64(s.Count)); err != nil {
		return err
	}
	return writeSample(w, name+"_max", labels, "", float64(s.Max))
}

// jsonBucket is one histogram bucket in the JSON exposition.
type jsonBucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"` // non-cumulative
}

// jsonSeries is one labeled series in the JSON exposition.
type jsonSeries struct {
	Labels string       `json:"labels,omitempty"`
	Value  *float64     `json:"value,omitempty"`
	Count  int64        `json:"count,omitempty"`
	Sum    int64        `json:"sum,omitempty"`
	Max    int64        `json:"max,omitempty"`
	P50    int64        `json:"p50,omitempty"`
	P99    int64        `json:"p99,omitempty"`
	Bucket []jsonBucket `json:"buckets,omitempty"`
}

// jsonFamily is one metric family in the JSON exposition.
type jsonFamily struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []jsonSeries `json:"series"`
}

// WriteJSON renders the registry as a JSON array of metric families.
func (r *Registry) WriteJSON(w io.Writer) error {
	var out []jsonFamily
	for _, f := range r.snapshot() {
		jf := jsonFamily{Name: f.name, Type: f.kind.String(), Help: f.help}
		for _, s := range f.sortedSeries() {
			js := jsonSeries{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				v := float64(s.c.Value())
				js.Value = &v
			case KindGauge:
				v := float64(s.g.Value())
				js.Value = &v
			case KindHistogram:
				hs := s.h.Snapshot()
				js.Count, js.Sum, js.Max = hs.Count, hs.Sum, hs.Max
				js.P50, js.P99 = hs.Percentile(50), hs.Percentile(99)
				for i, n := range hs.Buckets {
					if n != 0 {
						js.Bucket = append(js.Bucket, jsonBucket{UpperBound: profile.BucketUpperBound(i), Count: n})
					}
				}
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
