package policy

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func key32(i uint32) []byte {
	var k [4]byte
	binary.LittleEndian.PutUint32(k[:], i)
	return k[:]
}

func key64(i uint64) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], i)
	return k[:]
}

func TestArrayMapBasics(t *testing.T) {
	m := NewArrayMap("a", 16, 8)
	if m.KeySize() != 4 || m.ValueSize() != 16 || m.MaxEntries() != 8 {
		t.Fatalf("spec mismatch: %d/%d/%d", m.KeySize(), m.ValueSize(), m.MaxEntries())
	}
	// All entries pre-exist and are zero.
	for i := 0; i < 8; i++ {
		v := m.Lookup(key32(uint32(i)), 0)
		if v == nil || len(v) != 2 || v[0] != 0 || v[1] != 0 {
			t.Fatalf("entry %d: %v", i, v)
		}
	}
	if m.Lookup(key32(8), 0) != nil {
		t.Error("out-of-range lookup should be nil")
	}
	if m.Lookup([]byte{1, 2}, 0) != nil {
		t.Error("short key lookup should be nil")
	}
	if err := m.Update(key32(3), []uint64{7, 9}, 0); err != nil {
		t.Fatal(err)
	}
	if v := m.Lookup(key32(3), 0); v[0] != 7 || v[1] != 9 {
		t.Errorf("after update: %v", v)
	}
	if err := m.Update(key32(3), []uint64{7}, 0); err != ErrValueSize {
		t.Errorf("short value: %v, want ErrValueSize", err)
	}
	if err := m.Delete(key32(3)); err != ErrNoDelete {
		t.Errorf("delete: %v, want ErrNoDelete", err)
	}
	if v := m.At(3); v[0] != 7 {
		t.Errorf("At(3) = %v", v)
	}
}

func TestHashMapBasics(t *testing.T) {
	m := NewHashMap("h", 8, 8, 2)
	k1 := []byte("aaaaaaaa")
	k2 := []byte("bbbbbbbb")
	k3 := []byte("cccccccc")
	if v := m.Lookup(k1, 0); v != nil {
		t.Error("lookup on empty map")
	}
	if err := m.Update(k1, []uint64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(k2, []uint64{2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(k3, []uint64{3}, 0); err != ErrMapFull {
		t.Errorf("over capacity: %v, want ErrMapFull", err)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	// Updating an existing key does not hit the capacity check.
	if err := m.Update(k1, []uint64{11}, 0); err != nil {
		t.Fatal(err)
	}
	if v := m.Lookup(k1, 0); v[0] != 11 {
		t.Errorf("after update: %v", v)
	}
	if err := m.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(k1); err != ErrNoSuchKey {
		t.Errorf("double delete: %v, want ErrNoSuchKey", err)
	}
	if err := m.Update(k3, []uint64{3}, 0); err != nil {
		t.Errorf("insert after delete: %v", err)
	}
	if err := m.Update([]byte("short"), []uint64{0}, 0); err != ErrKeySize {
		t.Errorf("bad key: %v, want ErrKeySize", err)
	}
}

func TestHashMapRange(t *testing.T) {
	m := NewHashMap("h", 4, 8, 16)
	for i := uint32(0); i < 5; i++ {
		if err := m.Update(key32(i), []uint64{uint64(i) * 10}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var sum uint64
	m.Range(0, func(k []byte, v []uint64) bool {
		sum += v[0]
		return true
	})
	if sum != 0+10+20+30+40 {
		t.Errorf("sum = %d, want 100", sum)
	}
	// Early stop.
	n := 0
	m.Range(0, func([]byte, []uint64) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
}

func TestHashMapLookupOrInit(t *testing.T) {
	m := NewHashMap("h", 4, 8, 1)
	v1 := m.LookupOrInit(key32(1), 0)
	if v1 == nil {
		t.Fatal("init failed")
	}
	v2 := m.LookupOrInit(key32(1), 0)
	if &v1[0] != &v2[0] {
		t.Error("LookupOrInit returned different backing storage")
	}
	if m.LookupOrInit(key32(2), 0) != nil {
		t.Error("over-capacity init should fail")
	}
}

func TestPerCPUArrayMapBounds(t *testing.T) {
	m := NewPerCPUArrayMap("p", 8, 2, 3)
	if m.Lookup(key32(0), 3) != nil {
		t.Error("cpu out of range")
	}
	if m.Lookup(key32(2), 0) != nil {
		t.Error("index out of range")
	}
	if err := m.Update(key32(1), []uint64{5}, 2); err != nil {
		t.Fatal(err)
	}
	if v := m.Lookup(key32(1), 2); v[0] != 5 {
		t.Errorf("cpu2 = %v", v)
	}
	if v := m.Lookup(key32(1), 0); v[0] != 0 {
		t.Errorf("cpu0 should be isolated: %v", v)
	}
}

func TestMapConcurrentCounters(t *testing.T) {
	m := NewHashMap("h", 4, 8, 64)
	const workers = 8
	const iters = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := m.LookupOrInit(key32(uint32(w%4)), 0)
				atomic.AddUint64(&v[0], 1)
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := uint32(0); i < 4; i++ {
		if v := m.Lookup(key32(i), 0); v != nil {
			total += atomic.LoadUint64(&v[0])
		}
	}
	if total != workers*iters {
		t.Errorf("total = %d, want %d", total, workers*iters)
	}
}

func TestArrayMapUpdateLookupProperty(t *testing.T) {
	m := NewArrayMap("q", 8, 64)
	f := func(idx uint32, val uint64) bool {
		idx %= 64
		if err := m.Update(key32(idx), []uint64{val}, 0); err != nil {
			return false
		}
		v := m.Lookup(key32(idx), 0)
		return v != nil && v[0] == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashMapUpdateLookupProperty(t *testing.T) {
	m := NewHashMap("q", 8, 16, 4096)
	f := func(key [8]byte, val uint64) bool {
		if err := m.Update(key[:], []uint64{val, ^val}, 0); err != nil {
			return false
		}
		v := m.Lookup(key[:], 0)
		return v != nil && v[0] == val && v[1] == ^val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadMapSpecPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewArrayMap("x", 7, 1) },   // value not multiple of 8
		func() { NewArrayMap("x", 8, 0) },   // no entries
		func() { NewHashMap("x", 0, 8, 1) }, // zero key
		func() { NewPerCPUArrayMap("x", 8, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic on bad spec")
				}
			}()
			fn()
		}()
	}
}

// TestFixedMapStaysFixed pins the capacity contract: a hash map refuses
// keys past its budget.
func TestFixedMapStaysFixed(t *testing.T) {
	m := NewHashMap("fixed", 8, 8, 16)
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = m.Update(key64(uint64(i)), []uint64{1}, 0)
	}
	if err != ErrMapFull {
		t.Fatalf("fixed map accepted past budget (err=%v)", err)
	}
}

// TestTombstoneStats verifies live and dead slots are reported
// separately (the concordctl top fill-ratio fix).
func TestTombstoneStats(t *testing.T) {
	m := NewHashMap("tomb", 8, 8, 32)
	for i := 0; i < 16; i++ {
		if err := m.Update(key64(uint64(i)), []uint64{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := m.Delete(key64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := m.MapStats()
	if st.Occupancy != 8 {
		t.Fatalf("occupancy %d counts tombstones as live", st.Occupancy)
	}
	if st.Tombstones != 8 {
		t.Fatalf("tombstones %d, want 8", st.Tombstones)
	}
	// Reuse decrements the dead count again.
	if err := m.Update(key64(0), []uint64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if st := m.MapStats(); st.Tombstones != 7 {
		t.Fatalf("tombstones after reuse %d, want 7", st.Tombstones)
	}
}
