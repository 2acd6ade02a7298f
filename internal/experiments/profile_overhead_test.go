package experiments

import (
	"testing"

	"concord/internal/locks"
	"concord/internal/profile"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// Same-process A/B for the continuous-profiling overhead acceptance
// gate: the profiled and unprofiled variants run interleaved under one
// `go test -bench ProfileOverhead` invocation, so host-load drift that
// swamps back-to-back `concordctl figures` sweeps cancels out. Compare with
// benchstat, or eyeball ns/op:
//
//	go test -bench ProfileOverhead -count 5 ./internal/experiments/
func benchProfiledHashTable(b *testing.B, cp *profile.Continuous) {
	topo := topology.Paper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := locks.NewShflLock("bench-overhead")
		if cp != nil {
			l.HookSlot().Replace("cprofile", cp.Hooks("bench-overhead"))
		}
		workloads.RunHashTable(l, topo, workloads.HashTableConfig{
			Workers: 8, OpsPerWorker: 500,
		})
	}
}

func BenchmarkProfileOverheadOff(b *testing.B) {
	benchProfiledHashTable(b, nil)
}

func BenchmarkProfileOverheadDisarmed(b *testing.B) {
	cp := profile.NewContinuous(profile.ContinuousConfig{})
	benchProfiledHashTable(b, cp)
}

func BenchmarkProfileOverheadDefaultRate(b *testing.B) {
	cp := profile.NewContinuous(profile.ContinuousConfig{})
	cp.SetEnabled(true)
	benchProfiledHashTable(b, cp)
}

func BenchmarkProfileOverheadRate1(b *testing.B) {
	cp := profile.NewContinuous(profile.ContinuousConfig{SampleRate: 1})
	cp.SetEnabled(true)
	benchProfiledHashTable(b, cp)
}
