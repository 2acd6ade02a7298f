package workloads

import (
	"testing"

	"concord/internal/policy"
)

// mapPlaneTestKinds is the roster the map-plane tests and benchmarks
// run: every hash kind, sized for a 64-key space.
func mapPlaneTestKinds() []struct {
	name string
	mk   func() policy.Map
} {
	return []struct {
		name string
		mk   func() policy.Map
	}{
		{"hash", func() policy.Map { return policy.NewHashMap("plane", 8, 8, 128) }},
		{"percpu_hash", func() policy.Map { return policy.NewPerCPUHashMap("plane", 8, 8, 128, 4) }},
	}
}

func TestMapPlaneCounts(t *testing.T) {
	for _, mp := range mapPlaneTestKinds() {
		t.Run(mp.name, func(t *testing.T) {
			m := mp.mk()
			res := RunMapPlane(m, MapPlaneConfig{
				Workers: 4, OpsPerWorker: 512, Keys: 64, NumCPUs: 4,
			})
			if want := int64(4 * 512); res.Ops != want {
				t.Fatalf("ops = %d, want %d", res.Ops, want)
			}
			if res.Duration <= 0 {
				t.Fatal("non-positive duration")
			}
		})
	}
}

// TestMapPlaneZeroAlloc drives the full helper path — interpreted
// program, map_delete/map_add/map_lookup through execHelper — and pins
// every kind at zero heap allocations per op, churn
// included. This is the whole point of the data plane: a profiling
// policy on a lock hot path must never wake the allocator.
func TestMapPlaneZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-escapes program state; the pin holds in normal builds")
	}
	for _, mp := range mapPlaneTestKinds() {
		t.Run(mp.name, func(t *testing.T) {
			res := RunMapPlane(mp.mk(), MapPlaneConfig{
				Workers: 2, OpsPerWorker: 4096, Keys: 64, NumCPUs: 2,
				MeasureAlloc: true,
			})
			// Runtime bookkeeping outside the op loop (goroutine exit,
			// timer) can register a handful of mallocs; amortized over
			// thousands of ops the data plane itself must contribute none.
			if res.AllocsPerOp > 0.01 {
				t.Fatalf("allocs/op = %.4f, want 0", res.AllocsPerOp)
			}
		})
	}
}

func BenchmarkMapPlane(b *testing.B) {
	for _, mp := range mapPlaneTestKinds() {
		b.Run(mp.name, func(b *testing.B) {
			m := mp.mk()
			prog, err := MapPlaneProgram(m, 64)
			if err != nil {
				b.Fatal(err)
			}
			layout := policy.LayoutFor(policy.KindLockAcquired)
			ctx := policy.Ctx{Layout: layout, Words: make([]uint64, len(layout.Fields))}
			var seq int64
			env := &policy.FuncEnv{
				CPUFn:    func() int { return 0 },
				TaskIDFn: func() int64 { seq++; return seq },
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := policy.Exec(prog, &ctx, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
