package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string, seconds float64) runConfig {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{workload: workload, seed: 1, seconds: seconds, threads: 2, root: root,
		outDir: t.TempDir(), probeFloor: 2 * time.Millisecond}
}

// TestSmokeEndToEnd runs every workload for 300 ms and asserts that every
// end-to-end metric is measured, nothing failed, and the guard passes.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(smokeConfig(t, w.name, 0.3))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d notes=%v", r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			if r.Metrics["fail_share"] != 0 {
				t.Errorf("fail_share = %g", r.Metrics["fail_share"])
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %g (measured: %v); end-to-end metrics are never 0", d.name, v, ok)
				}
			}
			if err := printResultLine(io.Discard, r, endToEnd); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSmokeTraced runs every workload's traced run (the first with the
// layer probes) and asserts that every per-layer metric is emitted, that
// the ones the workload is about are not 0, and that the trace file
// parses and adds up.
func TestSmokeTraced(t *testing.T) {
	nonzero := map[string][]string{
		"solo_nohooks":     {"locks.acquire_p50_ns", "locks.release_p50_ns"},
		"ht_queue_numa":    {"locks.shuffle_moves_per_op", "locks.contended_share", "core.hook_fires_per_op", "core.hook_self_share"},
		"ht_pair_profiled": {"core.hook_fires_per_op", "core.hook_self_share", "allocs_per_op"},
		"rw_occ_gate":      {"locks.occ_read_share", "profile.windows", "core.hook_fires_per_op"},
		"policy_churn":     {"livepatch.drain_p50_us", "core.loadpolicy_us", "core.attach_us"},
	}
	for i, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, w.name, 0.8)
			cfg.skipProbes = i > 0
			r, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("correct=%v failed=%d notes=%v", r.Correct, r.Failed, r.Notes)
			}
			if err := printResultLine(io.Discard, r, perLayer); err != nil {
				t.Error(err)
			}
			for _, name := range nonzero[w.name] {
				if r.Metrics[name] <= 0 {
					t.Errorf("%s = %g on the workload that exercises it", name, r.Metrics[name])
				}
			}
			if !cfg.skipProbes {
				for _, d := range probeLayer {
					if r.Metrics[d.name] <= 0 && d.name != "policy.map_retries" {
						t.Errorf("probe %s = %g", d.name, r.Metrics[d.name])
					}
				}
			}
			checkTraceFile(t, r.TraceFile, w.name)
		})
	}
}

func checkTraceFile(t *testing.T, path, workload string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	names := map[string]int{}
	byID := map[uint64]span{}
	for _, s := range spans {
		names[s.Name]++
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End) {
			t.Fatalf("span %+v is not nested in its parent %+v", s, p)
		}
	}
	want := []string{"op", "lifecycle", "policydsl.compile", "core.LoadPolicy", "core.Attach", "livepatch.Wait",
		"core.Detach", "policy.Verify", "analysis.Analyze", "jit.Compile"}
	switch workload {
	case "rw_occ_gate":
		want = append(want, "locks.OptRead", "core.hook.lock_acquired")
	case "ht_queue_numa":
		want = append(want, "locks.Lock", "cs", "locks.Unlock", "core.hook.cmp_node")
	case "ht_pair_profiled":
		want = append(want, "locks.Lock", "cs", "locks.Unlock", "core.hook.lock_acquired")
	default:
		want = append(want, "locks.Lock", "cs", "locks.Unlock")
	}
	for _, name := range want {
		if names[name] == 0 {
			t.Errorf("trace of %s has no %q span (has %v)", workload, name, names)
		}
	}
	var ops []span
	for _, s := range spans {
		if s.Name != "lifecycle" && byID[rootOf(byID, s)].Name == "op" {
			ops = append(ops, s)
		}
	}
	var self int64
	for _, v := range selfTimes(ops) {
		self += v
	}
	if root := rootTime(ops, "op"); float64(self) < 0.95*float64(root) || float64(self) > 1.05*float64(root) {
		t.Errorf("per-op self times sum to %d ns, op spans to %d ns", self, root)
	}
}

func rootOf(byID map[uint64]span, s span) uint64 {
	for s.Parent != 0 {
		s = byID[s.Parent]
	}
	return s.ID
}

// TestGuardRejectsDetachedPolicy breaks a run the way a supervisor that
// silently detached would — the policy is gone before the measured phase,
// the lock is faster for it — and requires the validity guard to refuse it.
func TestGuardRejectsDetachedPolicy(t *testing.T) {
	short := plan{warm: 10 * time.Millisecond, slice: 30 * time.Millisecond, slices: 2}
	for _, workload := range []string{"ht_queue_numa", "ht_pair_profiled", "rw_occ_gate"} {
		t.Run(workload, func(t *testing.T) {
			cfg := smokeConfig(t, workload, 0)
			e, err := setup(workload, cfg.seed, cfg.root, cfg.threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			patch, err := e.fw.Detach(e.locks[0].Name())
			if err != nil {
				t.Fatal(err)
			}
			patch.Wait()
			ph := e.run(short)
			if ph.ops == 0 || ph.failed != 0 || e.check() != 0 {
				t.Fatalf("the broken run should still compute correctly: %d ops, %d failed", ph.ops, ph.failed)
			}
			err = new(report).finish(e, ph)
			if err == nil || !strings.Contains(err.Error(), "not in effect") {
				t.Errorf("guard accepted a run with the policy detached: %v", err)
			}
		})
	}
}
