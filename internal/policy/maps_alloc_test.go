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
	key := allocKey(7)
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
	if ru, ok := m.(rawUpdater); ok {
		pinAllocs(t, "UpdateRaw/existing", 0, func() {
			if err := ru.UpdateRaw(key, raw, cpu); err != nil {
				t.Fatal(err)
			}
		})
	}
	if li, ok := m.(interface {
		LookupOrInit(key []byte, cpu int) []uint64
	}); ok {
		pinAllocs(t, "LookupOrInit/hit", 0, func() {
			if li.LookupOrInit(key, cpu) == nil {
				t.Fatal("LookupOrInit returned nil for live key")
			}
		})
	}
	// Churn: delete + reinsert the same key every run, the profile-
	// eviction shape. The tombstone is recycled without touching the
	// heap.
	churn := allocKey(9)
	pinAllocs(t, "Delete+insert churn", 0, func() {
		if err := m.Update(churn, val, cpu); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(churn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHashMapZeroAlloc(t *testing.T) {
	mapAllocOps(t, NewHashMap("alloc", 8, 8, 64), 0)
}

func TestPerCPUHashMapZeroAlloc(t *testing.T) {
	mapAllocOps(t, NewPerCPUHashMap("alloc", 8, 8, 64, 4), 2)
}

func TestArrayMapZeroAlloc(t *testing.T) {
	m := NewArrayMap("alloc", 8, 64)
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], 7)
	val := []uint64{1}
	pinAllocs(t, "Lookup", 0, func() { _ = m.Lookup(key[:], 0) })
	pinAllocs(t, "Update", 0, func() {
		if err := m.Update(key[:], val, 0); err != nil {
			t.Fatal(err)
		}
	})
}
