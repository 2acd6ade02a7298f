package policy

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
)

// This file is the lock-free hash-map data plane: an open-addressing
// table with seqlock-validated optimistic readers and per-bucket-locked
// writers, mirroring how in-kernel eBPF hash maps work (BPF_F_NO_PREALLOC
// off): lookups are RCU-style and never block, while update/delete take a
// per-bucket spinlock. Everything — slot control words, key words, value
// words — is allocated once, when the map is created, so no map
// operation allocates. Like a kernel hash map's max_entries, the
// capacity is fixed there: an insert past it fails with ErrMapFull.
//
// Aliasing semantics (shared with every map kind here): Lookup returns
// a slice over a value arena. If the entry is deleted and its slot
// later reused for another key, a caller still holding that slice reads
// — and, through map_add, may even write — the *successor* entry's
// words. Kernel preallocated hash maps accept exactly this recycling
// race (elements are returned to a freelist and may be reused while an
// RCU reader still holds the old value pointer); we document it rather
// than pretend the Go side is stricter. Every word access remains atomic.

// MaxHashKeySize bounds hash-map key size in bytes. Keys are stored as
// little-endian 64-bit words so readers can compare them with atomic
// loads (seqlock-clean under the race detector); 64 bytes = 8 words is
// plenty for the lock-id/task-id keys policies use.
const MaxHashKeySize = 64

const maxKeyWords = MaxHashKeySize / 8

// Slot control word: bits 0-1 are the state, bits 2+ a sequence number
// bumped on every state transition. A reader validates an optimistic
// key compare by re-loading the word and checking it is unchanged
// (state and sequence both), so any concurrent delete or reuse of the
// slot forces a retry.
const (
	slotEmpty     uint64 = 0 // never occupied: terminates probe chains
	slotWriting   uint64 = 1 // claimed, key/value being written
	slotFull      uint64 = 2 // published
	slotTombstone uint64 = 3 // deleted; reusable, does not end a chain
	slotStateMask uint64 = 3
	slotSeqIncr   uint64 = 4
)

// numWriterLocks stripes the per-home-bucket writer locks. Two keys
// contend only if their raw hashes collide mod this.
const numWriterLocks = 64

// MapStats is the map-plane telemetry snapshot exported per map.
type MapStats struct {
	Occupancy  int64  // live entries
	Tombstones int64  // dead (tombstoned) slots awaiting reuse
	Collisions uint64 // insert-path probe displacements past the home slot
	Retries    uint64 // optimistic read-path retries (seqlock validation failures)
	Capacity   int    // slot count, fixed when the map is created
}

// StatsProvider is implemented by map kinds that track MapStats.
type StatsProvider interface {
	MapStats() MapStats
}

// hashWords mixes n key words (splitmix64-style) into a table index.
func hashWords(kw *[maxKeyWords]uint64, n int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		h ^= kw[i]
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0xc4ceb9fe1a85ec53
	return h ^ (h >> 29)
}

// loadKeyWords packs key into kw little-endian, zero-padding the tail
// word, and returns the word count. No allocation: kw lives on the
// caller's stack.
func loadKeyWords(kw *[maxKeyWords]uint64, key []byte) int {
	n := 0
	for len(key) >= 8 {
		kw[n] = binary.LittleEndian.Uint64(key)
		key = key[8:]
		n++
	}
	if len(key) > 0 {
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		kw[n] = w
		n++
	}
	return n
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// oaTable is HashMap's open-addressing key/slot engine: slot states and
// keys in one table sized at construction. The map owns its value
// stripes, indexed by slot.
type oaTable struct {
	keyWords int // words per stored key
	capacity int // power of two: probes always terminate
	mask     uint64
	maxLive  int64 // live-entry budget: maxEntries ≤ capacity/2

	ctl  []uint64 // capacity control words
	keys []uint64 // capacity × keyWords, written under slotWriting only

	count      atomic.Int64 // live entries (reservation-checked vs maxLive)
	tombs      atomic.Int64 // tombstoned slots
	collisions atomic.Uint64
	retries    atomic.Uint64

	wlocks [numWriterLocks]uint32
}

func (t *oaTable) init(keySize, maxEntries int) {
	capacity := nextPow2(2 * maxEntries)
	if capacity < 8 {
		capacity = 8
	}
	t.keyWords = (keySize + 7) / 8
	t.capacity = capacity
	t.mask = uint64(capacity - 1)
	t.maxLive = int64(maxEntries)
	t.ctl = make([]uint64, capacity)
	t.keys = make([]uint64, capacity*t.keyWords)
}

// lock spins on the writer-lock stripe for raw hash h. Mutations are
// short (a bounded probe plus a handful of word stores), so a CAS spin
// with a yield fallback is cheaper than parking.
func (t *oaTable) lock(h uint64) *uint32 {
	l := &t.wlocks[h&(numWriterLocks-1)]
	for spins := 0; !atomic.CompareAndSwapUint32(l, 0, 1); spins++ {
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
	return l
}

func (t *oaTable) unlock(l *uint32) { atomic.StoreUint32(l, 0) }

// keyMatch compares the stored key words of slot against kw with atomic
// loads. Safe to run concurrently with a writer; the caller revalidates
// the slot control word afterwards.
func (t *oaTable) keyMatch(slot int, kw *[maxKeyWords]uint64) bool {
	base := slot * t.keyWords
	for i := 0; i < t.keyWords; i++ {
		if atomic.LoadUint64(&t.keys[base+i]) != kw[i] {
			return false
		}
	}
	return true
}

// find is the optimistic read path, never taking a lock: probe from
// kw's home slot (h is kw's hash), comparing keys under a seqlock-style
// control-word validation. Returns the slot of the published entry
// holding kw, or -1.
func (t *oaTable) find(kw *[maxKeyWords]uint64, h uint64) int {
retry:
	idx := h & t.mask
	for probes := 0; probes < t.capacity; probes++ {
		c := atomic.LoadUint64(&t.ctl[idx])
		switch c & slotStateMask {
		case slotEmpty:
			return -1 // end of probe chain
		case slotFull:
			if t.keyMatch(int(idx), kw) {
				if atomic.LoadUint64(&t.ctl[idx]) == c {
					return int(idx)
				}
				// The slot transitioned mid-compare (delete or reuse):
				// the match is unreliable, restart the probe.
				t.retries.Add(1)
				goto retry
			}
		}
		// slotWriting and slotTombstone do not terminate the chain:
		// writing slots were empty-or-tombstone a moment ago and the
		// key being written is published only after its words land.
		idx = (idx + 1) & t.mask
	}
	return -1
}

// insertLocked finds kw or claims a slot for it. Must run under the
// writer lock of kw's raw-hash stripe h, which serializes all mutators
// of this key. On existed=true the slot is published and live. On
// existed=false the slot is claimed in slotWriting state with the key
// words already stored; the caller must fill its value words and then
// call publish. Returns slot -1 with ErrMapFull when the map is at its
// live budget (the claim is reservation-checked, so concurrent inserts
// in other buckets cannot overshoot).
func (t *oaTable) insertLocked(kw *[maxKeyWords]uint64, h uint64) (slot int, existed bool, err error) {
rescan:
	idx := h & t.mask
	reuse := -1
	claim := -1
	probes := 0
scan:
	for ; probes < t.capacity; probes++ {
		c := atomic.LoadUint64(&t.ctl[idx])
		switch c & slotStateMask {
		case slotFull:
			if t.keyMatch(int(idx), kw) {
				if atomic.LoadUint64(&t.ctl[idx]) != c {
					// The slot transitioned mid-compare (a cross-bucket
					// delete reclaimed it, so our lock did not serialize
					// it): the match may be torn. Restart the scan,
					// mirroring find().
					goto rescan
				}
				return int(idx), true, nil
			}
		case slotTombstone:
			if reuse < 0 {
				reuse = int(idx)
			}
		case slotEmpty:
			// End of chain: the key is absent.
			claim = int(idx)
			break scan
		}
		idx = (idx + 1) & t.mask
	}
	// The key is absent. Claim the first tombstone seen, else the empty
	// chain terminator. Empties are consumed monotonically (deletes only
	// ever mint tombstones), so after enough distinct-key churn a full
	// scan may find no empty slot at all — the remembered tombstone is
	// then the only claimable slot and MUST be used, or the map would
	// refuse new keys forever despite being far below maxLive.
	if reuse >= 0 {
		claim = reuse
	}
	if claim < 0 {
		// No empty slot and no tombstone: every slot is full or being
		// written, which the maxLive ≤ capacity/2 reservation prevents
		// at steady state — only transiently reachable mid-rescan.
		return -1, false, ErrMapFull
	}
	if n := t.count.Add(1); n > t.maxLive {
		t.count.Add(-1)
		return -1, false, ErrMapFull
	}
	if probes > 0 {
		t.collisions.Add(uint64(probes))
	}
	if !t.claim(claim) {
		// A writer for a key homed in another bucket (hence not
		// serialized by our lock) took the slot between our scan and
		// the CAS. Rescan: chain shape changed.
		t.count.Add(-1)
		goto rescan
	}
	base := claim * t.keyWords
	for i := 0; i < t.keyWords; i++ {
		atomic.StoreUint64(&t.keys[base+i], kw[i])
	}
	return claim, false, nil
}

// claim CASes an empty or tombstone slot into slotWriting, bumping the
// sequence so optimistic readers mid-compare notice.
func (t *oaTable) claim(slot int) bool {
	c := atomic.LoadUint64(&t.ctl[slot])
	s := c & slotStateMask
	if s != slotEmpty && s != slotTombstone {
		return false
	}
	next := (c &^ slotStateMask) + slotSeqIncr | slotWriting
	if !atomic.CompareAndSwapUint64(&t.ctl[slot], c, next) {
		return false
	}
	if s == slotTombstone {
		t.tombs.Add(-1)
	}
	return true
}

// publish flips a claimed slot to slotFull, making it visible to the
// optimistic read path.
func (t *oaTable) publish(slot int) {
	c := atomic.LoadUint64(&t.ctl[slot])
	atomic.StoreUint64(&t.ctl[slot], (c&^slotStateMask)+slotSeqIncr|slotFull)
}

// deleteLocked tombstones the slot holding kw. Must run under the
// writer lock of kw's raw-hash stripe h.
func (t *oaTable) deleteLocked(kw *[maxKeyWords]uint64, h uint64) error {
	slot := t.find(kw, h)
	if slot < 0 {
		return ErrNoSuchKey
	}
	c := atomic.LoadUint64(&t.ctl[slot])
	atomic.StoreUint64(&t.ctl[slot], (c&^slotStateMask)+slotSeqIncr|slotTombstone)
	t.tombs.Add(1)
	t.count.Add(-1)
	return nil
}

// rangeSlots calls fn for every published slot with its key. Entries
// inserted or deleted concurrently may or may not be observed; a
// userspace report reader's usual snapshot semantics.
func (t *oaTable) rangeSlots(keySize int, fn func(slot int, key []byte) bool) {
	for slot := 0; slot < t.capacity; slot++ {
		if atomic.LoadUint64(&t.ctl[slot])&slotStateMask != slotFull {
			continue
		}
		key := make([]byte, t.keyWords*8)
		base := slot * t.keyWords
		for i := 0; i < t.keyWords; i++ {
			binary.LittleEndian.PutUint64(key[i*8:], atomic.LoadUint64(&t.keys[base+i]))
		}
		if !fn(slot, key[:keySize]) {
			return
		}
	}
}

func (t *oaTable) stats() MapStats {
	return MapStats{
		Occupancy:  t.count.Load(),
		Tombstones: t.tombs.Load(),
		Collisions: t.collisions.Load(),
		Retries:    t.retries.Load(),
		Capacity:   t.capacity,
	}
}

// storeRawWords decodes little-endian raw bytes straight into value
// words with atomic stores — the zero-allocation spine of UpdateRaw.
func storeRawWords(dst []uint64, raw []byte) {
	for i := range dst {
		atomic.StoreUint64(&dst[i], binary.LittleEndian.Uint64(raw[i*8:]))
	}
}

func checkHashKey(name string, keySize int) {
	if keySize > MaxHashKeySize {
		panic(ErrBadMapSpec.Error() + ": " + name + ": hash key exceeds MaxHashKeySize")
	}
}

// --- Hash map (lock-free, fixed capacity) ---

// HashMap is a hash map with arbitrary fixed-size keys (≤ MaxHashKeySize
// bytes), the analogue of BPF_MAP_TYPE_HASH, or of
// BPF_MAP_TYPE_PERCPU_HASH when NewPerCPUHashMap builds it: one key
// table, with a value stripe per CPU, so counting policies touch only
// their own cacheline and hot keys do not bounce between CPUs. Lookup
// is lock-free (optimistic, seqlock-validated); Update/Delete serialize
// per home bucket, exactly the kernel htab discipline. No operation
// allocates, and an insert past maxEntries live keys fails with
// ErrMapFull.
type HashMap struct {
	name    string
	keySize int
	vals    stripes // capacity values per stripe, indexed by slot
	tab     oaTable
}

// NewHashMap creates a fixed-capacity hash map. All storage — slot
// control words, key words, values — is allocated here, never per
// operation.
func NewHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	return newHashMap(name, keySize, valueSize, maxEntries, 0)
}

// NewPerCPUHashMap creates a per-CPU hash map over numCPUs virtual CPUs.
func NewPerCPUHashMap(name string, keySize, valueSize, maxEntries, numCPUs int) *HashMap {
	checkCPUs(numCPUs)
	return newHashMap(name, keySize, valueSize, maxEntries, numCPUs)
}

func newHashMap(name string, keySize, valueSize, maxEntries, cpus int) *HashMap {
	checkSpec(name, keySize, valueSize, maxEntries)
	checkHashKey(name, keySize)
	m := &HashMap{name: name, keySize: keySize}
	m.tab.init(keySize, maxEntries)
	m.vals.init(m.tab.capacity, valueSize/8, cpus, true)
	return m
}

// Name implements Map.
func (m *HashMap) Name() string { return m.name }

// KeySize implements Map.
func (m *HashMap) KeySize() int { return m.keySize }

// ValueSize implements Map.
func (m *HashMap) ValueSize() int { return m.vals.words * 8 }

// MaxEntries implements Map: the live-entry budget.
func (m *HashMap) MaxEntries() int { return int(m.tab.maxLive) }

// NumCPUs returns the number of per-CPU value stripes, 0 for a shared map.
func (m *HashMap) NumCPUs() int { return m.vals.cpus }

// Lookup implements Map; on a per-CPU map the entry returned belongs to
// the given CPU. It never takes a lock: concurrent mutators are detected
// via the slot control word and retried past.
func (m *HashMap) Lookup(key []byte, cpu int) []uint64 {
	if len(key) != m.keySize || !m.vals.cpuOK(cpu) {
		return nil
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	slot := m.tab.find(&kw, hashWords(&kw, m.tab.keyWords))
	if slot < 0 {
		return nil
	}
	return m.vals.at(slot, cpu)
}

// Update implements Map, inserting the key if absent. On a per-CPU map
// it sets the given CPU's stripe only, as the kernel helper sets the
// current CPU's copy.
func (m *HashMap) Update(key []byte, value []uint64, cpu int) error {
	if len(value) != m.vals.words {
		return ErrValueSize
	}
	return m.update(key, cpu, func(dst []uint64) { atomicCopy(dst, value) })
}

// UpdateRaw is Update from little-endian bytes, the zero-allocation
// path the map_update helper uses.
func (m *HashMap) UpdateRaw(key, raw []byte, cpu int) error {
	if len(raw) != m.vals.words*8 {
		return ErrValueSize
	}
	return m.update(key, cpu, func(dst []uint64) { storeRawWords(dst, raw) })
}

func (m *HashMap) update(key []byte, cpu int, fill func(dst []uint64)) error {
	if len(key) != m.keySize {
		return ErrKeySize
	}
	if !m.vals.cpuOK(cpu) {
		return ErrBadCPU
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	_, err := m.upsert(&kw, hashWords(&kw, m.tab.keyWords), cpu, fill)
	return err
}

// upsert finds kw or inserts it under its writer lock. A fresh entry is
// zeroed on every stripe; fill, if not nil, then writes cpu's stripe
// before the entry is published.
func (m *HashMap) upsert(kw *[maxKeyWords]uint64, h uint64, cpu int, fill func(dst []uint64)) (int, error) {
	l := m.tab.lock(h)
	defer m.tab.unlock(l)
	slot, existed, err := m.tab.insertLocked(kw, h)
	if err != nil {
		return -1, err
	}
	if !existed {
		m.vals.zero(slot)
	}
	if fill != nil {
		fill(m.vals.at(slot, cpu))
	}
	if !existed {
		m.tab.publish(slot)
	}
	return slot, nil
}

// Delete implements Map, removing the key from every CPU at once.
func (m *HashMap) Delete(key []byte) error {
	if len(key) != m.keySize {
		return ErrKeySize
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	h := hashWords(&kw, m.tab.keyWords)
	l := m.tab.lock(h)
	defer m.tab.unlock(l)
	return m.tab.deleteLocked(&kw, h)
}

// LookupOrInit returns the given CPU's value for key, atomically
// inserting an entry zeroed on every CPU if absent, or nil if the map is
// full. The fast path is the lock-free find; only a miss takes the
// bucket writer lock. Used by the map_add helper so counting policies
// need no userspace priming and first touches cannot race.
func (m *HashMap) LookupOrInit(key []byte, cpu int) []uint64 {
	if len(key) != m.keySize || !m.vals.cpuOK(cpu) {
		return nil
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	h := hashWords(&kw, m.tab.keyWords)
	slot := m.tab.find(&kw, h)
	if slot < 0 {
		slot, _ = m.upsert(&kw, h, cpu, nil)
	}
	if slot < 0 {
		return nil
	}
	return m.vals.at(slot, cpu)
}

// Len reports the number of live keys.
func (m *HashMap) Len() int { return int(m.tab.count.Load()) }

// MapStats implements StatsProvider.
func (m *HashMap) MapStats() MapStats { return m.tab.stats() }

// Sum folds the first value word for key across all CPUs.
func (m *HashMap) Sum(key []byte) uint64 {
	if len(key) != m.keySize {
		return 0
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	slot := m.tab.find(&kw, hashWords(&kw, m.tab.keyWords))
	if slot < 0 {
		return 0
	}
	return m.vals.sum(slot)
}

// Range calls fn for every key with the given CPU's value slice until fn
// returns false. The value slice aliases map storage. Intended for
// userspace report readers.
func (m *HashMap) Range(cpu int, fn func(key []byte, value []uint64) bool) {
	if !m.vals.cpuOK(cpu) {
		return
	}
	m.tab.rangeSlots(m.keySize, func(slot int, key []byte) bool {
		return fn(key, m.vals.at(slot, cpu))
	})
}

// MapKindOf names the concrete kind of a map, for analysis cost models
// and telemetry labels.
func MapKindOf(m Map) string {
	switch m := m.(type) {
	case *ArrayMap:
		if m.NumCPUs() > 0 {
			return "percpu_array"
		}
		return "array"
	case *HashMap:
		if m.NumCPUs() > 0 {
			return "percpu_hash"
		}
		return "hash"
	}
	return "custom"
}
