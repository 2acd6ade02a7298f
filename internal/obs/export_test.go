package obs

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", "lock", "l1").Add(3)
	r.Gauge("depth", "queue depth").Set(-2)
	h := r.Histogram("wait_ns", "wait time", "lock", "l1")
	h.Observe(100)  // bucket 7 (le 127)
	h.Observe(5)    // bucket 3 (le 7)
	h.Observe(5000) // bucket 13 (le 8191)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP req_total requests",
		"# TYPE req_total counter",
		`req_total{lock="l1"} 3`,
		"# TYPE depth gauge",
		"depth -2",
		"# TYPE wait_ns histogram",
		`wait_ns_bucket{lock="l1",le="7"} 1`,
		`wait_ns_bucket{lock="l1",le="127"} 2`,
		`wait_ns_bucket{lock="l1",le="8191"} 3`,
		`wait_ns_bucket{lock="l1",le="+Inf"} 3`,
		`wait_ns_sum{lock="l1"} 5105`,
		`wait_ns_count{lock="l1"} 3`,
		`wait_ns_max{lock="l1"} 5000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusBucketsCumulative checks the histogram invariants every
// Prometheus consumer assumes: bucket counts are monotonically
// non-decreasing in le order and the +Inf bucket equals _count.
func TestPrometheusBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 17)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	var inf int64 = -1
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "lat_ns_bucket") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket counts decreased: %q after %d", line, prev)
		}
		prev = n
		if strings.Contains(line, `le="+Inf"`) {
			inf = n
		}
	}
	if inf != 1000 {
		t.Errorf("+Inf bucket = %d, want 1000", inf)
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Add(9)
	h := r.Histogram("h_ns", "a histogram", "lock", "l1")
	h.Observe(1000)
	h.Observe(2000)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string `json:"name"`
		Type   string `json:"type"`
		Series []struct {
			Labels string   `json:"labels"`
			Value  *float64 `json:"value"`
			Count  int64    `json:"count"`
			Sum    int64    `json:"sum"`
			Max    int64    `json:"max"`
			P99    int64    `json:"p99"`
			Bucket []struct {
				UpperBound int64 `json:"le"`
				Count      int64 `json:"count"`
			} `json:"buckets"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &fams); err != nil {
		t.Fatalf("JSON exposition does not parse: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	// Families are name-sorted: c_total before h_ns.
	if fams[0].Name != "c_total" || *fams[0].Series[0].Value != 9 {
		t.Errorf("counter family wrong: %+v", fams[0])
	}
	hs := fams[1].Series[0]
	if fams[1].Name != "h_ns" || hs.Count != 2 || hs.Sum != 3000 || hs.Max != 2000 {
		t.Errorf("histogram family wrong: %+v", fams[1])
	}
	if hs.Labels != `lock="l1"` {
		t.Errorf("labels = %q", hs.Labels)
	}
	var n int64
	for _, b := range hs.Bucket {
		n += b.Count // JSON buckets are non-cumulative
	}
	if n != 2 {
		t.Errorf("bucket counts sum to %d, want 2", n)
	}
}

// TestPrometheusCountMatchesInfUnderObserve scrapes while four writers
// record: every scrape must print _count equal to the +Inf bucket, as
// Prometheus requires, which holds only if both come from one snapshot.
func TestPrometheusCountMatchesInfUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); !stop.Load(); i++ {
				h.Observe(i * 17)
			}
		}(w)
	}
	const scrapes = 1000
	torn := 0
	for i := 0; i < scrapes; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case strings.HasPrefix(line, `lat_ns_bucket{le="+Inf"} `):
				inf = strings.Fields(line)[1]
			case strings.HasPrefix(line, "lat_ns_count "):
				count = strings.Fields(line)[1]
			}
		}
		if inf == "" || inf != count {
			torn++
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn != 0 {
		t.Errorf("%d of %d scrapes printed _count != _bucket{le=\"+Inf\"}", torn, scrapes)
	}
}
