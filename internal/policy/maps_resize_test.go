package policy

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// Online-resize torture: growable maps under concurrent readers,
// updaters and deleters at tight initial capacity, so the table doubles
// several times while traffic is in flight. Assertions:
//
//   - never-torn words: writers only store well-formed values (low half
//     == high half), readers atomic-load and check — a torn ctl-word
//     transition would surface as a mismatched key/value observation;
//   - no lost keys: workers own disjoint key ranges and their surviving
//     key sets are verified exactly after quiesce, across ≥ 3 doublings;
//   - the race detector proves every access stays synchronized/atomic
//     through epoch flips and migration.

func resizeKey(worker, i uint64) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], worker<<32|i)
	return k[:]
}

func resizeVal(worker, i uint64) uint64 {
	x := uint32(worker<<20 | i)
	return uint64(x)<<32 | uint64(x)
}

// tortureResize drives one growable map through concurrent churn and
// verifies the surviving state exactly.
func tortureResize(t *testing.T, m Map, numCPUs int) {
	t.Helper()
	const workers = 4
	perWorker := 6000
	if testing.Short() {
		perWorker = 1500
	}

	sp, ok := m.(StatsProvider)
	if !ok {
		t.Fatalf("map %T does not expose MapStats", m)
	}
	startCap := sp.MapStats().Capacity

	var torn atomic.Int64
	checkWord := func(v []uint64) {
		for i := range v {
			x := atomic.LoadUint64(&v[i])
			if uint32(x>>32) != uint32(x) {
				torn.Add(1)
			}
		}
	}

	var mutWg, rdWg sync.WaitGroup
	// Mutators: each owns key range w<<32|i. Insert every key, delete
	// every third — so the live set grows monotonically past the initial
	// budget while tombstone churn runs alongside the growth migration.
	for w := 0; w < workers; w++ {
		mutWg.Add(1)
		go func(w int) {
			defer mutWg.Done()
			for i := 0; i < perWorker; i++ {
				k := resizeKey(uint64(w), uint64(i))
				val := resizeVal(uint64(w), uint64(i))
				for cpu := 0; cpu < numCPUs; cpu++ {
					if err := m.Update(k, []uint64{val}, cpu); err != nil {
						t.Errorf("worker %d key %d cpu %d: %v", w, i, cpu, err)
						return
					}
				}
				if i%3 == 0 {
					if err := m.Delete(k); err != nil {
						t.Errorf("worker %d delete %d: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: roam the whole key space until the mutators finish; any
	// hit must be well-formed.
	var stop atomic.Bool
	for r := 0; r < 2; r++ {
		rdWg.Add(1)
		go func(r int) {
			defer rdWg.Done()
			for i := 0; !stop.Load(); i++ {
				w := uint64((r + i) % workers)
				k := resizeKey(w, uint64(i%perWorker))
				if v := m.Lookup(k, i%numCPUs); v != nil {
					checkWord(v)
				}
			}
		}(r)
	}
	mutWg.Wait()
	stop.Store(true)
	rdWg.Wait()
	if t.Failed() {
		return // a mutator already reported the failure
	}

	if got := torn.Load(); got != 0 {
		t.Fatalf("observed %d torn reads", got)
	}

	// Quiesce: finish any in-flight migration, then verify exact state.
	switch mm := m.(type) {
	case *HashMap:
		mm.tab.drainResize()
	case *PerCPUHashMap:
		mm.tab.drainResize()
	}

	wantLive := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := resizeKey(uint64(w), uint64(i))
			v := m.Lookup(k, 0)
			if i%3 == 0 {
				if v != nil {
					t.Fatalf("deleted key w=%d i=%d still present", w, i)
				}
				continue
			}
			wantLive++
			if v == nil {
				t.Fatalf("lost key w=%d i=%d", w, i)
			}
			want := resizeVal(uint64(w), uint64(i))
			if got := atomic.LoadUint64(&v[0]); got != want {
				t.Fatalf("key w=%d i=%d: got %#x want %#x", w, i, got, want)
			}
		}
	}

	st := sp.MapStats()
	if int(st.Occupancy) != wantLive {
		t.Fatalf("occupancy %d, want %d live keys", st.Occupancy, wantLive)
	}
	if st.Capacity < 8*startCap {
		t.Fatalf("capacity %d never reached 3 doublings from %d", st.Capacity, startCap)
	}
	if st.Resizes < 3 {
		t.Fatalf("only %d resizes recorded, want ≥ 3", st.Resizes)
	}
	if st.Migrated == 0 {
		t.Fatalf("no slots were migrated incrementally")
	}
}

func TestHashMapResizeTorture(t *testing.T) {
	tortureResize(t, NewGrowableHashMap("resize-torture", 8, 8, 64), 1)
}

func TestPerCPUHashMapResizeTorture(t *testing.T) {
	tortureResize(t, NewGrowablePerCPUHashMap("resize-torture-percpu", 8, 8, 64, 2), 2)
}

// TestGrowablePastBudget is the sequential contract: a growable map
// accepts far more distinct keys than its initial budget, no key or
// value is lost across the doublings, and MaxEntries reports the grown
// budget.
func TestGrowablePastBudget(t *testing.T) {
	m := NewGrowableHashMap("grow", 8, 8, 32)
	const n = 50000
	for i := 0; i < n; i++ {
		k := resizeKey(1, uint64(i))
		if err := m.Update(k, []uint64{uint64(i) ^ 0xabcdef}, 0); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len=%d want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		v := m.Lookup(resizeKey(1, uint64(i)), 0)
		if v == nil || v[0] != uint64(i)^0xabcdef {
			t.Fatalf("key %d lost or wrong after growth", i)
		}
	}
	if got := m.MaxEntries(); got < n {
		t.Fatalf("MaxEntries=%d did not grow past %d", got, n)
	}
	st := m.MapStats()
	if st.Resizes < 3 || st.ResizeAllocBytes == 0 {
		t.Fatalf("stats missed growth: %+v", st)
	}
}

// TestGrowableChurnReclaims is the distinct-key churn contract: insert
// and delete a rolling window of distinct keys far beyond the initial
// budget; tombstone compaction (folded into migration) keeps the table
// healthy and no insert ever fails.
func TestGrowableChurnReclaims(t *testing.T) {
	m := NewGrowableHashMap("churn", 8, 8, 128)
	const (
		window = 96
		total  = 40000
	)
	for i := 0; i < total; i++ {
		if err := m.Update(resizeKey(2, uint64(i)), []uint64{uint64(i)}, 0); err != nil {
			t.Fatalf("churn insert %d: %v", i, err)
		}
		if i >= window {
			if err := m.Delete(resizeKey(2, uint64(i-window))); err != nil {
				t.Fatalf("churn delete %d: %v", i-window, err)
			}
		}
	}
	if got := m.Len(); got != window {
		t.Fatalf("live=%d want %d", got, window)
	}
	st := m.MapStats()
	// The live set never exceeds window+1, so even with growth the
	// capacity must stay far below total: churn reclaimed space instead
	// of consuming it.
	if st.Capacity >= total {
		t.Fatalf("capacity %d grew with churn instead of compacting", st.Capacity)
	}
}

// TestFixedMapStaysFixed pins the back-compat contract: non-growable
// maps never resize and still refuse keys past their budget.
func TestFixedMapStaysFixed(t *testing.T) {
	m := NewHashMap("fixed", 8, 8, 16)
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = m.Update(resizeKey(3, uint64(i)), []uint64{1}, 0)
	}
	if err != ErrMapFull {
		t.Fatalf("fixed map accepted past budget (err=%v)", err)
	}
	if st := m.MapStats(); st.Resizes != 0 {
		t.Fatalf("fixed map resized %d times", st.Resizes)
	}
}

// TestTombstoneStats verifies live and dead slots are reported
// separately (the concordctl top fill-ratio fix).
func TestTombstoneStats(t *testing.T) {
	m := NewHashMap("tomb", 8, 8, 32)
	for i := 0; i < 16; i++ {
		if err := m.Update(resizeKey(4, uint64(i)), []uint64{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := m.Delete(resizeKey(4, uint64(i))); err != nil {
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
	if err := m.Update(resizeKey(4, 0), []uint64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if st := m.MapStats(); st.Tombstones != 7 {
		t.Fatalf("tombstones after reuse %d, want 7", st.Tombstones)
	}
}

// TestGrowableSpecRoundTrip pins growable through serialize and the DSL.
func TestGrowableSpecRoundTrip(t *testing.T) {
	g := NewGrowableHashMap("g", 8, 8, 64)
	spec := SpecOf(g)
	if !spec.Growable {
		t.Fatalf("SpecOf dropped growable")
	}
	m2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if hm, ok := m2.(*HashMap); !ok || !hm.Growable() {
		t.Fatalf("rebuilt map lost growable: %T", m2)
	}
	f := NewHashMap("f", 8, 8, 64)
	if SpecOf(f).Growable {
		t.Fatalf("fixed map serialized as growable")
	}
}

// TestStaleBatchKeepsToItsEpoch: a migration batch that loaded the
// draining epoch and runs on after that drain completed and the next
// resize began must not take the next drain's slots. With one cursor
// shared by every resize it did: it spent the new epoch's indices on the
// old epoch's tombstones, no batch visited the slots behind them, the
// remaining count never reached 0, and every writer then spun in
// drainResize. The interleaving is replayed in order on one goroutine:
// the stale batch is migrateFrom on the epoch it loaded.
func TestStaleBatchKeepsToItsEpoch(t *testing.T) {
	m := NewGrowableHashMap("stale-batch", 8, 8, 16)
	tab := &m.tab
	next := uint64(0)
	resizing := func() *oaEpoch {
		for tab.prev.Load() == nil {
			if err := m.Update(resizeKey(5, next), []uint64{next}, 0); err != nil {
				t.Fatalf("insert %d: %v", next, err)
			}
			next++
		}
		return tab.prev.Load()
	}
	drained := resizing()
	tab.drainResize()
	draining := resizing()
	if draining.capacity <= drained.capacity {
		t.Fatalf("second resize to capacity %d, want growth past %d", draining.capacity, drained.capacity)
	}

	tab.migrateFrom(drained, drained.capacity) // the stale batch
	tab.migrateBatch(draining.capacity)        // one pass of the cursor
	if tab.prev.Load() != nil {
		t.Fatalf("drain incomplete after its cursor's pass: %d slots never visited", tab.remaining.Load())
	}
	for i := uint64(0); i < next; i++ {
		if v := m.Lookup(resizeKey(5, i), 0); v == nil || v[0] != i {
			t.Fatalf("key %d lost across the resizes", i)
		}
	}
}
