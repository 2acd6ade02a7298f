package ksim

import (
	"sync/atomic"
	"testing"
)

// TestEngineTelemetryCounters covers the simulator's observability
// surface: the event counter and the cacheline transfer counter the cost
// model feeds.
func TestEngineTelemetryCounters(t *testing.T) {
	e := testEngine()
	c := DefaultCosts()
	var transfers atomic.Int64
	c.Transfers = &transfers

	lock := NewSimQspin(e, c)
	procs := e.NewProcs(8) // spans both sockets of the paper topology
	w := Workload{Name: "obs", ThinkNS: 200, CSNS: 400}
	res := RunClosedLoop(e, lock, procs, w, 2_000_000)

	if res.Ops == 0 {
		t.Fatal("workload completed no ops")
	}
	if got := e.EventsProcessed(); got == 0 {
		t.Error("EventsProcessed = 0 after a closed-loop run")
	}
	if transfers.Load() == 0 {
		t.Error("cross-CPU contention produced no cacheline transfers")
	}
}
