package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentGetters(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", "lock", "a")
	c2 := r.Counter("x_total", "", "lock", "a")
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counters")
	}
	c3 := r.Counter("x_total", "", "lock", "b")
	if c1 == c3 {
		t.Error("different labels returned the same counter")
	}
	g1 := r.Gauge("y", "", "k", "v")
	if g1 != r.Gauge("y", "", "k", "v") {
		t.Error("gauge getter not idempotent")
	}
	h1 := r.Histogram("z_ns", "")
	if h1 != r.Histogram("z_ns", "") {
		t.Error("histogram getter not idempotent")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Error("redeclaring a counter as a gauge should panic")
		}
	}()
	r.Gauge("m_total", "")
}

func TestLabelCanonicalization(t *testing.T) {
	// Order-insensitive: {a,b} and {b,a} are the same series.
	r := NewRegistry()
	c1 := r.Counter("n_total", "", "a", "1", "b", "2")
	c2 := r.Counter("n_total", "", "b", "2", "a", "1")
	if c1 != c2 {
		t.Error("label order created distinct series")
	}
	if got := labelString([]string{"b", "2", "a", "1"}); got != `a="1",b="2"` {
		t.Errorf("labelString = %q", got)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

// TestRegistryConcurrency hammers creation and updates from many
// goroutines; run with -race to check the lock-free update claim.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 1000
	locknames := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := locknames[(w+i)%len(locknames)]
				r.Counter("conc_total", "h", "lock", name).Inc()
				r.Gauge("conc_gauge", "h").Set(int64(i))
				r.Histogram("conc_ns", "h", "lock", name).Observe(int64(i))
			}
		}(w)
	}
	// Concurrent scrapes against concurrent updates.
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	scrape.Wait()

	var total int64
	for _, name := range locknames {
		total += r.Counter("conc_total", "", "lock", name).Value()
	}
	if total != workers*iters {
		t.Errorf("counted %d increments, want %d", total, workers*iters)
	}
	var hcount int64
	for _, name := range locknames {
		hcount += r.Histogram("conc_ns", "", "lock", name).Snapshot().Count
	}
	if hcount != workers*iters {
		t.Errorf("histograms saw %d samples, want %d", hcount, workers*iters)
	}
}

func TestExternalCollector(t *testing.T) {
	r := NewRegistry()
	r.Counter("native_total", "").Add(7)
	v := int64(41)
	r.AddExternal(func(add func(Sample)) {
		add(Sample{Name: "ext_total", Kind: KindCounter, Value: float64(v)})
		add(Sample{Name: "ext_gauge", Kind: KindGauge, Labels: []string{"k", "x"}, Value: 3})
		// Colliding with a registry family is dropped, not merged.
		add(Sample{Name: "native_total", Kind: KindCounter, Value: 100})
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ext_total 41", `ext_gauge{k="x"} 3`, "native_total 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "native_total 100") {
		t.Error("external overrode a registry family")
	}

	// Externals are read at scrape time, not registration time.
	v = 42
	sb.Reset()
	_ = r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "ext_total 42") {
		t.Error("external not re-collected on second scrape")
	}
}
