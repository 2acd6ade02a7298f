package policy

import (
	"encoding/binary"
	"testing"
)

// Allocation pins for the map data plane. The preallocated hash kinds
// promise that NO operation allocates — not just steady-state lookups
// but inserts, deletes, and tombstone reuse too. These run as tests,
// not benchmarks, so `go test` itself guards the invariant.

func allocKey(i uint64) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], i)
	return k[:]
}

// pinAllocs asserts op performs exactly want allocations per run.
func pinAllocs(t *testing.T, name string, want float64, op func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, op); got != want {
		t.Errorf("%s: %.2f allocs/op, want %.2f", name, got, want)
	}
}

// mapAllocOps exercises every data-plane operation on m and pins its
// allocation count at zero.
func mapAllocOps(t *testing.T, m Map, cpu int) {
	t.Helper()
	key := allocKey(7)[:m.KeySize()]
	val := []uint64{42}
	raw := make([]byte, 8)
	binary.LittleEndian.PutUint64(raw, 43)
	if err := m.Update(key, val, cpu); err != nil {
		t.Fatal(err)
	}

	pinAllocs(t, "Lookup", 0, func() { _ = m.Lookup(key, cpu) })
	pinAllocs(t, "Update/existing", 0, func() {
		if err := m.Update(key, val, cpu); err != nil {
			t.Fatal(err)
		}
	})
	pinAllocs(t, "UpdateRaw/existing", 0, func() {
		if err := m.(rawUpdater).UpdateRaw(key, raw, cpu); err != nil {
			t.Fatal(err)
		}
	})
	h, ok := m.(*HashMap)
	if !ok {
		return
	}
	pinAllocs(t, "LookupOrInit/hit", 0, func() {
		if h.LookupOrInit(key, cpu) == nil {
			t.Fatal("LookupOrInit returned nil for live key")
		}
	})
	// Churn: delete + reinsert the same key every run, the profile-
	// eviction shape. The tombstone is recycled without touching the
	// heap.
	churn := allocKey(9)
	pinAllocs(t, "Delete+insert churn", 0, func() {
		if err := h.Update(churn, val, cpu); err != nil {
			t.Fatal(err)
		}
		if err := h.Delete(churn); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMapZeroAlloc pins every built-in map kind, shared and per-CPU, at
// zero allocations per operation.
func TestMapZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		m   Map
		cpu int
	}{
		{NewArrayMap("alloc", 8, 64), 0},
		{NewPerCPUArrayMap("alloc", 8, 64, 4), 2},
		{NewHashMap("alloc", 8, 8, 64), 0},
		{NewPerCPUHashMap("alloc", 8, 8, 64, 4), 2},
	} {
		t.Run(MapKindOf(tc.m), func(t *testing.T) { mapAllocOps(t, tc.m, tc.cpu) })
	}
}
