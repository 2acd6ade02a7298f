package policy

import "testing"

func TestPerCPUHashMapBasics(t *testing.T) {
	m := NewPerCPUHashMap("p", 8, 8, 4, 3)
	k := []byte("aaaaaaaa")
	if m.Lookup(k, 0) != nil {
		t.Error("lookup on empty map")
	}
	if m.Lookup(k, 3) != nil {
		t.Error("cpu out of range")
	}
	if err := m.Update(k, []uint64{5}, 1); err != nil {
		t.Fatal(err)
	}
	// The updated CPU sees the value; the others see a zeroed stripe
	// (a fresh insert zeroes every CPU before publishing).
	if v := m.Lookup(k, 1); v == nil || v[0] != 5 {
		t.Errorf("cpu1 = %v, want [5]", v)
	}
	if v := m.Lookup(k, 0); v == nil || v[0] != 0 {
		t.Errorf("cpu0 should be zero-initialized: %v", v)
	}
	if err := m.Update(k, []uint64{7}, 2); err != nil {
		t.Fatal(err)
	}
	if got := m.Sum(k); got != 12 {
		t.Errorf("Sum = %d, want 12", got)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
	// Delete removes the key from every CPU at once.
	if err := m.Delete(k); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 3; cpu++ {
		if m.Lookup(k, cpu) != nil {
			t.Errorf("cpu%d still sees deleted key", cpu)
		}
	}
	if err := m.Update([]byte("short"), []uint64{0}, 0); err != ErrKeySize {
		t.Errorf("bad key: %v, want ErrKeySize", err)
	}
	if err := m.Update(k, []uint64{0}, 3); err != ErrBadCPU {
		t.Errorf("cpu out of range: %v, want ErrBadCPU", err)
	}
	if err := m.Update(k, []uint64{0}, -1); err != ErrBadCPU {
		t.Errorf("negative cpu: %v, want ErrBadCPU", err)
	}
}

// TestPerCPUHashMapReinsertZeroes pins the insert protocol: a slot
// recycled via tombstone reuse must come back fully zeroed on every
// stripe, not carry the previous tenant's counters.
func TestPerCPUHashMapReinsertZeroes(t *testing.T) {
	m := NewPerCPUHashMap("p", 8, 8, 2, 2)
	k := []byte("aaaaaaaa")
	for round := 0; round < 3; round++ {
		if v := m.LookupOrInit(k, 0); v == nil || v[0] != 0 {
			t.Fatalf("round %d: fresh entry = %v, want [0]", round, v)
		}
		if err := m.Update(k, []uint64{99}, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMapCPUContract pins what the cpu argument means to each built-in
// kind: a shared map has one value and ignores the cpu, a per-CPU map
// has one stripe per CPU and refuses a cpu outside them.
func TestMapCPUContract(t *testing.T) {
	for _, tc := range []struct {
		m    Map
		cpus int // 0 for a shared map
	}{
		{NewArrayMap("a", 8, 4), 0},
		{NewPerCPUArrayMap("pa", 8, 4, 3), 3},
		{NewHashMap("h", 8, 8, 4), 0},
		{NewPerCPUHashMap("ph", 8, 8, 4, 3), 3},
	} {
		t.Run(MapKindOf(tc.m), func(t *testing.T) {
			m := tc.m
			key := key64(1)[:m.KeySize()]
			var sum func() uint64
			switch mm := m.(type) {
			case *ArrayMap:
				sum = func() uint64 { return mm.Sum(1) }
			case *HashMap:
				sum = func() uint64 { return mm.Sum(key) }
			}
			word := func(cpu int) uint64 {
				t.Helper()
				v := m.Lookup(key, cpu)
				if v == nil {
					t.Fatalf("Lookup(cpu %d) = nil", cpu)
				}
				return v[0]
			}

			if tc.cpus == 0 {
				// Every CPU, in range or not, reads and writes the one value.
				for i, cpu := range []int{0, 5, -1} {
					if err := m.Update(key, []uint64{uint64(10 + i)}, cpu); err != nil {
						t.Fatalf("Update(cpu %d): %v", cpu, err)
					}
					for _, reader := range []int{0, 5, -1} {
						if got := word(reader); got != uint64(10+i) {
							t.Errorf("cpu %d reads %d after cpu %d wrote %d", reader, got, cpu, 10+i)
						}
					}
				}
				if got := sum(); got != 12 {
					t.Errorf("Sum = %d, want 12", got)
				}
			} else {
				for _, cpu := range []int{-1, tc.cpus} {
					if err := m.Update(key, []uint64{1}, cpu); err != ErrBadCPU {
						t.Errorf("Update(cpu %d) = %v, want ErrBadCPU", cpu, err)
					}
					if err := m.(rawUpdater).UpdateRaw(key, make([]byte, 8), cpu); err != ErrBadCPU {
						t.Errorf("UpdateRaw(cpu %d) = %v, want ErrBadCPU", cpu, err)
					}
					if v := m.Lookup(key, cpu); v != nil {
						t.Errorf("Lookup(cpu %d) = %v, want nil", cpu, v)
					}
				}
				// A refused update wrote nothing: a hash map has no key, an
				// array's entry is zero on every stripe.
				for cpu := range tc.cpus {
					if v := m.Lookup(key, cpu); v != nil && v[0] != 0 {
						t.Errorf("cpu %d holds %v after refused updates", cpu, v)
					}
				}
				for cpu := range tc.cpus {
					if err := m.Update(key, []uint64{uint64(10 + cpu)}, cpu); err != nil {
						t.Fatal(err)
					}
				}
				for cpu := range tc.cpus {
					if got := word(cpu); got != uint64(10+cpu) {
						t.Errorf("cpu %d reads %d, want its own %d", cpu, got, 10+cpu)
					}
				}
				if got := sum(); got != 10+11+12 {
					t.Errorf("Sum = %d, want 33", got)
				}
			}

			// A fresh insert zeroes every stripe, a recycled slot's old
			// values included, whichever path inserts.
			if h, ok := m.(*HashMap); ok {
				for _, insert := range []struct {
					name string
					run  func()
					want uint64 // what cpu 0 reads after
				}{
					{"LookupOrInit", func() { h.LookupOrInit(key, 0) }, 0},
					{"Update", func() { _ = h.Update(key, []uint64{5}, 0) }, 5},
				} {
					for cpu := range max(tc.cpus, 1) {
						if err := h.Update(key, []uint64{99}, cpu); err != nil {
							t.Fatal(err)
						}
					}
					if err := h.Delete(key); err != nil {
						t.Fatal(err)
					}
					insert.run()
					for cpu := range max(tc.cpus, 1) {
						want := uint64(0)
						if cpu == 0 {
							want = insert.want
						}
						if got := word(cpu); got != want {
							t.Errorf("%s: cpu %d reads %d after a fresh insert, want %d", insert.name, cpu, got, want)
						}
					}
				}
			}

			spec := SpecOf(m)
			if spec.Type != MapKindOf(m) || spec.NumCPUs != tc.cpus {
				t.Errorf("SpecOf = %+v, want type %s and %d cpus", spec, MapKindOf(m), tc.cpus)
			}
			rebuilt, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if again := SpecOf(rebuilt); again != spec {
				t.Errorf("SpecOf(Build(%+v)) = %+v", spec, again)
			}
		})
	}
}

func TestMapKindOf(t *testing.T) {
	cases := []struct {
		m    Map
		want string
	}{
		{NewArrayMap("a", 8, 1), "array"},
		{NewPerCPUArrayMap("pa", 8, 1, 2), "percpu_array"},
		{NewHashMap("h", 8, 8, 1), "hash"},
		{NewPerCPUHashMap("ph", 8, 8, 1, 2), "percpu_hash"},
	}
	for _, tc := range cases {
		if got := MapKindOf(tc.m); got != tc.want {
			t.Errorf("MapKindOf(%s) = %q, want %q", tc.m.Name(), got, tc.want)
		}
	}
}

// TestHashMapTombstoneChurn regression-tests empty-slot exhaustion:
// deletes only ever mint tombstones, so after enough distinct-key
// insert+delete churn a probe scan can cross the whole table without
// seeing a single empty slot. Inserts must then claim a tombstone, not
// fail with ErrMapFull while the map is nearly empty — the exact shape
// of a task-id-keyed profiler policy under task churn.
func TestHashMapTombstoneChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    interface {
			Map
			Len() int
		}
	}{
		{"hash", NewHashMap("churn", 4, 8, 4)},
		{"percpu_hash", NewPerCPUHashMap("churn", 4, 8, 4, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			// Two long-lived entries that must survive the churn.
			for i := uint32(0); i < 2; i++ {
				if err := m.Update(key32(i), []uint64{uint64(i)}, 0); err != nil {
					t.Fatal(err)
				}
			}
			// Churn distinct keys far past capacity (maxEntries 4 →
			// table capacity 8): every empty slot is eventually spent.
			for i := uint32(100); i < 400; i++ {
				if err := m.Update(key32(i), []uint64{7}, 0); err != nil {
					t.Fatalf("churn insert %d: %v (live=%d)", i, err, m.Len())
				}
				if v := m.Lookup(key32(i), 0); v == nil {
					t.Fatalf("churn key %d vanished after insert", i)
				}
				if err := m.Delete(key32(i)); err != nil {
					t.Fatalf("churn delete %d: %v", i, err)
				}
			}
			for i := uint32(0); i < 2; i++ {
				if v := m.Lookup(key32(i), 0); v == nil || v[0] != uint64(i) {
					t.Errorf("long-lived key %d = %v, want [%d]", i, v, i)
				}
			}
			if m.Len() != 2 {
				t.Errorf("Len = %d, want 2", m.Len())
			}
		})
	}
}

// TestHashMapStatsCounters drives collisions and retries observable
// through MapStats: a saturated small table must report insert-probe
// collisions, and occupancy must track live entries exactly.
func TestHashMapStatsCounters(t *testing.T) {
	m := NewHashMap("h", 4, 8, 16)
	for i := uint32(0); i < 16; i++ {
		if err := m.Update(key32(i), []uint64{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := m.MapStats()
	if st.Occupancy != 16 {
		t.Errorf("Occupancy = %d, want 16", st.Occupancy)
	}
	if st.Collisions == 0 {
		t.Error("a 50%-loaded table with 16 inserts should report some probe collisions")
	}
	for i := uint32(0); i < 16; i++ {
		if err := m.Delete(key32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.MapStats(); st.Occupancy != 0 {
		t.Errorf("Occupancy after drain = %d, want 0", st.Occupancy)
	}
}
