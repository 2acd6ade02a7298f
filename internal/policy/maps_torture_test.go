package policy

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// Torture tests for the hash-map data plane: concurrent readers,
// updaters, and deleters hammer a small key space and assert the one
// guarantee the maps make under races — reads are word-atomic, never
// torn. Writers only ever store well-formed values (low half == high
// half), so any torn read surfaces as a malformed word. The race
// detector additionally proves every access is a synchronized or
// atomic one. What is deliberately NOT asserted: which entry a held
// value slice refers to after a delete — the documented recycling
// race (see maps_hash.go) allows a stale slice to alias a successor
// entry's words, and those words are well-formed too.

// wellFormed builds a value word whose halves mirror each other.
func wellFormed(x uint32) uint64 { return uint64(x)<<32 | uint64(x) }

// tortureMap runs the mixed workload against any Map implementation.
func tortureMap(t *testing.T, m Map, numCPUs int) {
	t.Helper()
	const (
		keys  = 64
		iters = 8000
	)
	n := iters
	if testing.Short() {
		n = 1000
	}

	mkKey := func(i uint64) []byte {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], i%keys)
		return k[:]
	}
	var torn atomic.Int64
	checkWord := func(v []uint64) {
		for i := range v {
			x := atomic.LoadUint64(&v[i])
			if uint32(x>>32) != uint32(x) {
				torn.Add(1)
			}
		}
	}

	var wg sync.WaitGroup
	worker := func(id int, fn func(id, i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(id, i)
			}
		}()
	}

	// Updaters: alternate the words-slice and raw-bytes update paths.
	for w := 0; w < 2; w++ {
		worker(w, func(id, i int) {
			cpu := id % numCPUs
			k := mkKey(uint64(id*2477 + i))
			val := wellFormed(uint32(id<<24 | i))
			if i%2 == 0 {
				_ = m.Update(k, []uint64{val}, cpu)
			} else if ru, ok := m.(rawUpdater); ok {
				var raw [8]byte
				binary.LittleEndian.PutUint64(raw[:], val)
				_ = ru.UpdateRaw(k, raw[:], cpu)
			} else {
				_ = m.Update(k, []uint64{val}, cpu)
			}
		})
	}
	// Deleters: churn slots so tombstone reuse and seqlock retries fire.
	for w := 2; w < 4; w++ {
		worker(w, func(id, i int) {
			_ = m.Delete(mkKey(uint64(id*3643 + i*7)))
		})
	}
	// Readers: every observed word must be well-formed (zero included).
	for w := 4; w < 6; w++ {
		worker(w, func(id, i int) {
			cpu := id % numCPUs
			if v := m.Lookup(mkKey(uint64(id*1583+i*3)), cpu); v != nil {
				checkWord(v)
			}
		})
	}
	// Initers: LookupOrInit either finds a published entry or inserts a
	// zeroed one; both are well-formed.
	if li, ok := m.(interface {
		LookupOrInit(key []byte, cpu int) []uint64
	}); ok {
		worker(6, func(id, i int) {
			if v := li.LookupOrInit(mkKey(uint64(id*911+i*5)), id%numCPUs); v != nil {
				checkWord(v)
			}
		})
	}
	wg.Wait()

	if got := torn.Load(); got != 0 {
		t.Fatalf("observed %d torn reads", got)
	}
	// Quiescent sweep: every surviving entry is well-formed too.
	if mm, ok := m.(*HashMap); ok {
		for cpu := 0; cpu < numCPUs; cpu++ {
			mm.Range(cpu, func(_ []byte, v []uint64) bool { checkWord(v); return true })
		}
	}
	if got := torn.Load(); got != 0 {
		t.Fatalf("quiescent sweep found %d malformed words", got)
	}
}

func TestHashMapTorture(t *testing.T) {
	tortureMap(t, NewHashMap("torture", 8, 8, 128), 1)
}

func TestPerCPUHashMapTorture(t *testing.T) {
	tortureMap(t, NewPerCPUHashMap("torture", 8, 8, 128, 4), 4)
}

// TestHashMapTortureSmall forces heavy slot reuse: capacity barely over
// the key space, so tombstone recycling and insert rescans are constant.
func TestHashMapTortureSmall(t *testing.T) {
	tortureMap(t, NewHashMap("torture-small", 8, 8, 8), 1)
}

// TestHashMapTortureFillPastBudget is the fixed-capacity contract under
// concurrent inserts: four writers each stream distinct keys until the
// map refuses one. Every writer must stop at ErrMapFull, the live
// reservation must hold occupancy to exactly the budget, and every key
// accepted must be found with its value.
func TestHashMapTortureFillPastBudget(t *testing.T) {
	const workers = 4
	m := NewHashMap("fill", 8, 8, 256)
	capacity := m.MapStats().Capacity
	key := func(w, j int) []byte {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], uint64(w)<<32|uint64(j))
		return k[:]
	}
	inserted := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				if err := m.Update(key(w, j), []uint64{wellFormed(uint32(j))}, 0); err != nil {
					errs[w] = err
					return
				}
				inserted[w]++
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w, err := range errs {
		if err != ErrMapFull {
			t.Fatalf("writer %d stopped with %v, want ErrMapFull", w, err)
		}
		total += inserted[w]
		for j := 0; j < inserted[w]; j++ {
			if v := m.Lookup(key(w, j), 0); v == nil || v[0] != wellFormed(uint32(j)) {
				t.Fatalf("writer %d key %d lost or wrong: %v", w, j, v)
			}
		}
	}
	st := m.MapStats()
	if total != m.MaxEntries() || m.Len() != m.MaxEntries() || st.Occupancy != int64(m.MaxEntries()) {
		t.Fatalf("accepted %d keys, Len %d, occupancy %d; want the budget %d", total, m.Len(), st.Occupancy, m.MaxEntries())
	}
	if st.Capacity != capacity {
		t.Fatalf("capacity %d changed from %d", st.Capacity, capacity)
	}
}
