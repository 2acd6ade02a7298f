package policy

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file is the lock-free hash-map data plane: an open-addressing
// table with seqlock-validated optimistic readers and per-bucket-locked
// writers, mirroring how in-kernel eBPF hash maps work (BPF_F_NO_PREALLOC
// off): lookups are RCU-style and never block, while update/delete take a
// per-bucket spinlock. Everything — slot control words, key words, value
// words — lives in arenas sized per table epoch, so no steady-state map
// operation allocates.
//
// Online resize (growable maps only): when live occupancy crosses the
// high-water mark — or tombstones crowd a quarter of the slots — a
// writer allocates a shadow epoch at 2× (same size for pure compaction),
// flips it in while briefly holding every writer stripe, and then each
// subsequent writer op migrates a bounded batch of old-epoch slots before
// doing its own work. Only published (Full) slots migrate, so tombstone
// compaction is folded into migration for free. Lock-free readers probe
// old-then-new, validating with the same seqlock ctl words; the epoch
// pointers are re-checked after a double miss so a concurrent flip can
// never hide a key. See DESIGN.md §12 for the full protocol.
//
// Aliasing semantics (shared with every map kind here): Lookup returns
// a slice over a value arena. If the entry is deleted and its slot
// later reused for another key, a caller still holding that slice reads
// — and, through map_add, may even write — the *successor* entry's
// words. Kernel preallocated hash maps accept exactly this recycling
// race (elements are returned to a freelist and may be reused while an
// RCU reader still holds the old value pointer); we document it rather
// than pretend the Go side is stricter. Migration extends the same
// contract across epochs: a value slice obtained before a slot migrated
// keeps aliasing the old epoch's arena, so writes through it after the
// copy are lost to the re-homed entry — value-level staleness, never
// memory unsafety. Every word access remains atomic.

// MaxHashKeySize bounds hash-map key size in bytes. Keys are stored as
// little-endian 64-bit words so readers can compare them with atomic
// loads (seqlock-clean under the race detector); 64 bytes = 8 words is
// plenty for the lock-id/task-id keys policies use.
const MaxHashKeySize = 64

const maxKeyWords = MaxHashKeySize / 8

// Slot control word: bits 0-1 are the state, bits 2+ a sequence number
// bumped on every state transition. A reader validates an optimistic
// key compare by re-loading the word and checking it is unchanged
// (state and sequence both), so any concurrent delete/reuse/migration
// of the slot forces a retry.
const (
	slotEmpty     uint64 = 0 // never occupied: terminates probe chains
	slotWriting   uint64 = 1 // claimed, key/value being written
	slotFull      uint64 = 2 // published
	slotTombstone uint64 = 3 // deleted; reusable, does not end a chain
	slotStateMask uint64 = 3
	slotSeqIncr   uint64 = 4
)

// numWriterLocks stripes the per-home-bucket writer locks. Two keys
// contend only if their raw hashes collide mod this; because the stripe
// index depends on the hash alone (not the epoch's mask), a key maps to
// the same stripe in every epoch, which is what lets one stripe lock
// serialize all mutators of a key across a resize.
const numWriterLocks = 64

// migrateBatchSlots is how many old-epoch slots each writer op migrates
// before its own mutation while a resize is draining — the incremental
// rehash batch size, same discipline as kernel htab grow-in-place.
const migrateBatchSlots = 16

// MapStats is the map-plane telemetry snapshot exported per map.
type MapStats struct {
	Occupancy  int64  // live entries
	Tombstones int64  // dead (tombstoned) slots awaiting reuse or compaction
	Collisions uint64 // insert-path probe displacements past the home slot
	Retries    uint64 // optimistic read-path retries (seqlock validation failures)
	Resizes    uint64 // epoch flips (growth or compaction)
	Migrated   uint64 // slots re-homed by incremental migration
	// ResizeAllocBytes is the cumulative bytes allocated by resize
	// epochs — the amortized migration cost, accounted separately from
	// the zero-alloc steady state. Geometric growth bounds it at about
	// 4× the final table footprint.
	ResizeAllocBytes uint64
	Capacity         int // current epoch's slot count
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

// oaEpoch is one generation of table storage: slot control words, key
// words, and the value arena for this capacity. Readers hold an epoch
// pointer for the duration of one probe, so a retired epoch stays valid
// (all slots tombstoned) until the GC collects it — the Go analogue of
// an RCU grace period.
type oaEpoch struct {
	capacity int // power of two: probes always terminate
	mask     uint64

	ctl  []uint64 // capacity control words
	keys []uint64 // capacity × keyWords, written under slotWriting only

	vals []uint64 // value arena; layout is owned by the wrapping kind
	// stride/base describe the per-CPU layout (PerCPUHashMap): words per
	// CPU stripe and the element offset aligning vals[base] to a
	// cacheline. Slot-major kinds leave them 0.
	stride int
	base   int

	// scan is the migration cursor over this epoch's slots while it
	// drains. It belongs to the epoch, not the table: a batch that loaded
	// this epoch and runs on after its drain completed can only walk its
	// tombstones, never take slots of a newer drain.
	scan atomic.Int64
}

// oaTable is the open-addressing key/slot engine shared by HashMap and
// PerCPUHashMap. It owns slot states, keys and the resize protocol; the
// wrapping kind owns value layout through the allocVals/copyVal hooks.
type oaTable struct {
	keyWords int  // words per stored key
	growable bool // resize (growth + compaction) enabled

	cur  atomic.Pointer[oaEpoch] // current epoch: all writes land here
	prev atomic.Pointer[oaEpoch] // draining epoch mid-resize, else nil

	maxLive   atomic.Int64 // live-entry budget (capacity/2 invariant)
	remaining atomic.Int64 // Full slots left to migrate out of prev

	count      atomic.Int64 // live entries (reservation-checked vs maxLive)
	tombs      atomic.Int64 // tombstones in the current epoch
	collisions atomic.Uint64
	retries    atomic.Uint64
	resizes    atomic.Uint64
	migrated   atomic.Uint64
	resizeBy   atomic.Uint64 // cumulative resize alloc bytes

	wlocks [numWriterLocks]uint32

	// allocVals sizes e.vals (and stride/base) for e.capacity; copyVal
	// re-homes one slot's value words between epochs during migration.
	// Both are set once at construction, before the map is shared.
	allocVals func(e *oaEpoch)
	copyVal   func(dst, src *oaEpoch, dstSlot, srcSlot int)
}

func (t *oaTable) init(keySize, maxEntries int) {
	capacity := nextPow2(2 * maxEntries)
	if capacity < 8 {
		capacity = 8
	}
	t.keyWords = (keySize + 7) / 8
	t.maxLive.Store(int64(maxEntries))
	t.cur.Store(t.newEpoch(capacity))
}

// newEpoch allocates ctl+keys for a capacity; the caller attaches the
// value arena via allocVals (init defers that until the wrapper has set
// the hook).
func (t *oaTable) newEpoch(capacity int) *oaEpoch {
	e := &oaEpoch{
		capacity: capacity,
		mask:     uint64(capacity - 1),
		ctl:      make([]uint64, capacity),
		keys:     make([]uint64, capacity*t.keyWords),
	}
	return e
}

// setValueHooks wires the wrapper's value-arena callbacks and sizes the
// initial epoch's arena. Must be called before the map is shared.
func (t *oaTable) setValueHooks(allocVals func(*oaEpoch), copyVal func(dst, src *oaEpoch, dstSlot, srcSlot int)) {
	t.allocVals = allocVals
	t.copyVal = copyVal
	t.allocVals(t.cur.Load())
}

// lock spins on the writer-lock stripe for raw hash h. Mutations are
// short (a bounded probe plus a handful of word stores), so a CAS spin
// with a yield fallback is cheaper than parking.
func (t *oaTable) lock(h uint64) *uint32 {
	return t.lockIdx(int(h & (numWriterLocks - 1)))
}

func (t *oaTable) lockIdx(i int) *uint32 {
	l := &t.wlocks[i]
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
func (e *oaEpoch) keyMatch(keyWords, slot int, kw *[maxKeyWords]uint64) bool {
	base := slot * keyWords
	for i := 0; i < keyWords; i++ {
		if atomic.LoadUint64(&e.keys[base+i]) != kw[i] {
			return false
		}
	}
	return true
}

// find is the optimistic read path across epochs: probe the draining
// epoch first (old-then-new — migration publishes into the new epoch
// *before* tombstoning the old slot, so this order can miss a key only
// if the epoch pointers moved mid-probe, which the post-miss revalidation
// catches), never taking a lock. Returns the epoch and slot of the
// published entry holding kw, or (nil, -1).
func (t *oaTable) find(kw *[maxKeyWords]uint64) (*oaEpoch, int) {
	h := hashWords(kw, t.keyWords)
	for {
		old := t.prev.Load()
		cur := t.cur.Load()
		if old != nil {
			if slot := t.findIn(old, kw, h); slot >= 0 {
				return old, slot
			}
		}
		if slot := t.findIn(cur, kw, h); slot >= 0 {
			return cur, slot
		}
		// Double miss: only final if the epoch set is unchanged, else a
		// flip may have moved the key between our two probes.
		if t.cur.Load() == cur && t.prev.Load() == old {
			return nil, -1
		}
		t.retries.Add(1)
	}
}

// findIn probes one epoch from the home bucket, comparing keys under a
// seqlock-style control-word validation.
func (t *oaTable) findIn(e *oaEpoch, kw *[maxKeyWords]uint64, h uint64) int {
retry:
	idx := h & e.mask
	for probes := 0; probes < e.capacity; probes++ {
		c := atomic.LoadUint64(&e.ctl[idx])
		switch c & slotStateMask {
		case slotEmpty:
			return -1 // end of probe chain
		case slotFull:
			if e.keyMatch(t.keyWords, int(idx), kw) {
				if atomic.LoadUint64(&e.ctl[idx]) == c {
					return int(idx)
				}
				// The slot transitioned mid-compare (delete, reuse or
				// migration): the match is unreliable, restart the probe.
				t.retries.Add(1)
				goto retry
			}
		}
		// slotWriting and slotTombstone do not terminate the chain:
		// writing slots were empty-or-tombstone a moment ago and the
		// key being written is published only after its words land.
		idx = (idx + 1) & e.mask
	}
	return -1
}

// insertLocked finds kw or claims a slot for it in the current epoch.
// Must run under the writer lock of kw's raw-hash stripe (which
// serializes all mutators of this key in every epoch). While a resize is
// draining it first re-homes kw out of the old epoch, so the scan below
// only ever faces the current one. On existed=true the slot is published
// and live. On existed=false the slot is claimed in slotWriting state
// with the key words already stored; the caller must fill its value
// words and then call publish. Returns slot -1 with ErrMapFull when the
// map is at its live budget (the claim is reservation-checked, so
// concurrent inserts in other buckets cannot overshoot).
func (t *oaTable) insertLocked(kw *[maxKeyWords]uint64) (*oaEpoch, int, bool, error) {
	h := hashWords(kw, t.keyWords)
	if old := t.prev.Load(); old != nil {
		t.migrateKeyLocked(old, kw, h)
	}
	e := t.cur.Load()
	slot, existed, err := t.insertInto(e, kw, h, true)
	return e, slot, existed, err
}

// insertInto is the epoch-level scan-and-claim. reserve=false is the
// migration path: the entry is already counted live, so the maxLive
// reservation is skipped.
func (t *oaTable) insertInto(e *oaEpoch, kw *[maxKeyWords]uint64, h uint64, reserve bool) (slot int, existed bool, err error) {
rescan:
	idx := h & e.mask
	reuse := -1
	claim := -1
	probes := 0
scan:
	for ; probes < e.capacity; probes++ {
		c := atomic.LoadUint64(&e.ctl[idx])
		switch c & slotStateMask {
		case slotFull:
			if e.keyMatch(t.keyWords, int(idx), kw) {
				if atomic.LoadUint64(&e.ctl[idx]) != c {
					// The slot transitioned mid-compare (a cross-bucket
					// delete reclaimed it, so our lock did not serialize
					// it): the match may be torn. Restart the scan,
					// mirroring findIn().
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
		idx = (idx + 1) & e.mask
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
	if reserve {
		if n := t.count.Add(1); n > t.maxLive.Load() {
			t.count.Add(-1)
			return -1, false, ErrMapFull
		}
	}
	if probes > 0 {
		t.collisions.Add(uint64(probes))
	}
	if !t.claim(e, claim) {
		// A writer for a key homed in another bucket (hence not
		// serialized by our lock) took the slot between our scan and
		// the CAS. Rescan: chain shape changed.
		if reserve {
			t.count.Add(-1)
		}
		goto rescan
	}
	base := claim * t.keyWords
	for i := 0; i < t.keyWords; i++ {
		atomic.StoreUint64(&e.keys[base+i], kw[i])
	}
	return claim, false, nil
}

// claim CASes an empty or tombstone slot into slotWriting, bumping the
// sequence so optimistic readers mid-compare notice.
func (t *oaTable) claim(e *oaEpoch, slot int) bool {
	c := atomic.LoadUint64(&e.ctl[slot])
	s := c & slotStateMask
	if s != slotEmpty && s != slotTombstone {
		return false
	}
	next := (c &^ slotStateMask) + slotSeqIncr | slotWriting
	if !atomic.CompareAndSwapUint64(&e.ctl[slot], c, next) {
		return false
	}
	if s == slotTombstone && e == t.cur.Load() {
		t.tombs.Add(-1)
	}
	return true
}

// publish flips a claimed slot to slotFull, making it visible to the
// optimistic read path.
func (t *oaTable) publish(e *oaEpoch, slot int) {
	c := atomic.LoadUint64(&e.ctl[slot])
	atomic.StoreUint64(&e.ctl[slot], (c&^slotStateMask)+slotSeqIncr|slotFull)
}

// tombstone marks a slot dead with a sequence bump.
func (t *oaTable) tombstone(e *oaEpoch, slot int) {
	c := atomic.LoadUint64(&e.ctl[slot])
	atomic.StoreUint64(&e.ctl[slot], (c&^slotStateMask)+slotSeqIncr|slotTombstone)
}

// deleteLocked tombstones the slot holding kw. Must run under the
// writer lock of kw's raw-hash stripe. Like insertLocked, it re-homes
// the key first so the tombstone always lands in the current epoch.
func (t *oaTable) deleteLocked(kw *[maxKeyWords]uint64) error {
	h := hashWords(kw, t.keyWords)
	if old := t.prev.Load(); old != nil {
		t.migrateKeyLocked(old, kw, h)
	}
	e := t.cur.Load()
	slot := t.findIn(e, kw, h)
	if slot < 0 {
		return ErrNoSuchKey
	}
	t.tombstone(e, slot)
	t.tombs.Add(1)
	t.count.Add(-1)
	return nil
}

// --- Online resize ---

// needResize decides whether the current epoch should be replaced, and
// at what capacity. Growth triggers at 7/8 of the live budget; pure
// compaction (same capacity, tombstones dropped by migration) triggers
// when a quarter of the slots are dead. Only growable maps resize —
// fixed maps keep the PR 5 preallocated contract exactly.
func (t *oaTable) needResize(e *oaEpoch) (int, bool) {
	if !t.growable {
		return 0, false
	}
	maxLive := t.maxLive.Load()
	if t.count.Load() >= maxLive-maxLive/8 {
		return e.capacity * 2, true
	}
	if t.tombs.Load() >= int64(e.capacity/4) {
		return e.capacity, true
	}
	return 0, false
}

// maybeResize is called by every writer op before it takes its stripe
// lock (so it holds none here). It helps drain an in-flight resize by a
// bounded batch, or initiates one when the high-water mark is crossed.
func (t *oaTable) maybeResize() {
	if t.prev.Load() != nil {
		t.migrateBatch(migrateBatchSlots)
		return
	}
	if _, ok := t.needResize(t.cur.Load()); ok {
		t.beginResize()
	}
}

// beginResize allocates the shadow epoch and flips it in. The flip
// briefly holds every writer stripe (in index order — the only place
// more than one stripe is ever held, so no ordering cycle exists): with
// all writers quiescent the old epoch's Full-slot census is exact and no
// claim can ever land in it afterwards. Readers are not stopped; their
// epoch revalidation covers the flip.
func (t *oaTable) beginResize() {
	for i := 0; i < numWriterLocks; i++ {
		t.lockIdx(i)
	}
	defer func() {
		for i := 0; i < numWriterLocks; i++ {
			t.unlock(&t.wlocks[i])
		}
	}()
	if t.prev.Load() != nil {
		return // lost the initiation race; the winner's drain is underway
	}
	e := t.cur.Load()
	newCap, ok := t.needResize(e)
	if !ok {
		return
	}
	ne := t.newEpoch(newCap)
	t.allocVals(ne)
	t.resizeBy.Add(uint64((len(ne.ctl) + len(ne.keys) + len(ne.vals)) * 8))

	full := int64(0)
	for i := range e.ctl {
		if atomic.LoadUint64(&e.ctl[i])&slotStateMask == slotFull {
			full++
		}
	}
	t.tombs.Store(0) // old tombstones die with the old epoch
	t.maxLive.Store(int64(newCap / 2))
	t.resizes.Add(1)
	if full == 0 {
		// Nothing to migrate: the flip is also the drain.
		t.cur.Store(ne)
		return
	}
	t.remaining.Store(full)
	t.prev.Store(e)
	t.cur.Store(ne)
}

// migrateBatch advances the incremental rehash by up to budget slots of
// the draining epoch. Callers must hold no stripe lock: each slot is
// re-homed under its own key's stripe, one lock at a time.
func (t *oaTable) migrateBatch(budget int) {
	if old := t.prev.Load(); old != nil {
		t.migrateFrom(old, budget)
	}
}

// migrateFrom advances old's cursor by up to budget slots, re-homing each
// still published. old may have finished draining since the caller loaded
// it, and a newer resize may have begun: its cursor is then exhausted, or
// its slots are tombstones.
func (t *oaTable) migrateFrom(old *oaEpoch, budget int) {
	for ; budget > 0; budget-- {
		i := old.scan.Add(1) - 1
		if i >= int64(old.capacity) {
			// Cursor exhausted: any slots still counted in remaining are
			// being re-homed right now by the writers serializing them.
			return
		}
		t.migrateSlot(old, int(i))
	}
}

// migrateSlot re-homes one old-epoch slot if it is still published. The
// slot's key decides the stripe lock, so the key must be read (and
// seqlock-validated) before locking, then revalidated after.
func (t *oaTable) migrateSlot(old *oaEpoch, slot int) {
	c := atomic.LoadUint64(&old.ctl[slot])
	if c&slotStateMask != slotFull {
		return // empty or already compacted away
	}
	var kw [maxKeyWords]uint64
	base := slot * t.keyWords
	for i := 0; i < t.keyWords; i++ {
		kw[i] = atomic.LoadUint64(&old.keys[base+i])
	}
	if atomic.LoadUint64(&old.ctl[slot]) != c {
		// The owning writer re-homed or deleted it mid-read; it adjusted
		// the remaining count itself.
		return
	}
	h := hashWords(&kw, t.keyWords)
	l := t.lock(h)
	defer t.unlock(l)
	if atomic.LoadUint64(&old.ctl[slot]) != c {
		return // re-homed while we waited for the stripe
	}
	t.migrateInto(old, slot, &kw, h)
}

// migrateKeyLocked re-homes kw out of the draining epoch, if present.
// Must run under kw's stripe lock.
func (t *oaTable) migrateKeyLocked(old *oaEpoch, kw *[maxKeyWords]uint64, h uint64) {
	slot := t.findIn(old, kw, h)
	if slot < 0 {
		return
	}
	t.migrateInto(old, slot, kw, h)
}

// migrateInto copies one published old-epoch slot into the current
// epoch: claim, key+value copy, publish, then tombstone the source.
// Publishing before tombstoning is what makes the readers' old-then-new
// probe order lossless. Runs under kw's stripe lock.
func (t *oaTable) migrateInto(old *oaEpoch, slot int, kw *[maxKeyWords]uint64, h uint64) {
	ne := t.cur.Load()
	nslot, existed, err := t.insertInto(ne, kw, h, false)
	if err != nil {
		// Unreachable by construction: the new epoch has capacity for
		// every live entry (maxLive ≤ capacity/2) and migration skips
		// the reservation. Leave the slot for the owning writer.
		return
	}
	if !existed {
		t.copyVal(ne, old, nslot, slot)
		t.publish(ne, nslot)
	}
	t.tombstone(old, slot)
	t.migrated.Add(1)
	if t.remaining.Add(-1) == 0 {
		// Drain complete: detach the old epoch. Readers holding its
		// pointer finish probing all-tombstone slots harmlessly.
		t.prev.Store(nil)
	}
}

// drainResize migrates every remaining slot, blocking until the old
// epoch detaches. Used by the growable ErrMapFull retry path and tests.
func (t *oaTable) drainResize() {
	for t.prev.Load() != nil {
		t.migrateBatch(migrateBatchSlots)
		if old := t.prev.Load(); old != nil && old.scan.Load() >= int64(old.capacity) {
			// Cursor done but stragglers are mid-re-home under their
			// stripe locks; yield until they finish.
			runtime.Gosched()
		}
	}
}

// rangeSlots calls fn for every published slot as (epoch, slot, key).
// Entries inserted or deleted concurrently may or may not be observed; a
// userspace report reader's usual snapshot semantics. During a resize the
// current epoch is walked first and draining-epoch keys are suppressed
// when already re-homed, so a key mid-migration is reported once.
func (t *oaTable) rangeSlots(keySize int, fn func(e *oaEpoch, slot int, key []byte) bool) {
	cur := t.cur.Load()
	if !t.rangeEpoch(cur, keySize, nil, fn) {
		return
	}
	if old := t.prev.Load(); old != nil {
		t.rangeEpoch(old, keySize, cur, fn)
	}
}

func (t *oaTable) rangeEpoch(e *oaEpoch, keySize int, skipIfIn *oaEpoch, fn func(e *oaEpoch, slot int, key []byte) bool) bool {
	for slot := 0; slot < e.capacity; slot++ {
		if atomic.LoadUint64(&e.ctl[slot])&slotStateMask != slotFull {
			continue
		}
		key := make([]byte, t.keyWords*8)
		var kw [maxKeyWords]uint64
		base := slot * t.keyWords
		for i := 0; i < t.keyWords; i++ {
			kw[i] = atomic.LoadUint64(&e.keys[base+i])
			binary.LittleEndian.PutUint64(key[i*8:], kw[i])
		}
		if skipIfIn != nil {
			if s := t.findIn(skipIfIn, &kw, hashWords(&kw, t.keyWords)); s >= 0 {
				continue // migrated mid-walk; already reported from cur
			}
		}
		if !fn(e, slot, key[:keySize]) {
			return false
		}
	}
	return true
}

func (t *oaTable) stats() MapStats {
	return MapStats{
		Occupancy:        t.count.Load(),
		Tombstones:       t.tombs.Load(),
		Collisions:       t.collisions.Load(),
		Retries:          t.retries.Load(),
		Resizes:          t.resizes.Load(),
		Migrated:         t.migrated.Load(),
		ResizeAllocBytes: t.resizeBy.Load(),
		Capacity:         t.cur.Load().capacity,
	}
}

// storeRawWords decodes little-endian raw bytes straight into value
// words with atomic stores — the zero-allocation spine of UpdateRaw.
func storeRawWords(dst []uint64, raw []byte) {
	for i := range dst {
		atomic.StoreUint64(&dst[i], binary.LittleEndian.Uint64(raw[i*8:]))
	}
}

// --- Hash map (lock-free, growable) ---

// HashMap is a hash map with arbitrary fixed-size keys (≤ MaxHashKeySize
// bytes), the analogue of BPF_MAP_TYPE_HASH. Lookup is lock-free
// (optimistic, seqlock-validated); Update/Delete serialize per home
// bucket, exactly the kernel htab discipline. Steady-state operations
// never allocate; a growable map additionally resizes online (bounded
// incremental migration amortized over writer ops) once occupancy
// crosses the high-water mark, so the data plane scales past its
// preallocated budget instead of returning ErrMapFull.
type HashMap struct {
	name       string
	keySize    int
	valueWords int
	tab        oaTable
}

// NewHashMap creates a fixed-capacity hash map. All storage — slot
// control words, key words, values — is allocated here, never per
// operation.
func NewHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	checkSpec(name, keySize, valueSize, maxEntries)
	checkHashKey(name, keySize)
	m := &HashMap{
		name:       name,
		keySize:    keySize,
		valueWords: valueSize / 8,
	}
	m.tab.init(keySize, maxEntries)
	m.tab.setValueHooks(
		func(e *oaEpoch) { e.vals = make([]uint64, e.capacity*m.valueWords) },
		func(dst, src *oaEpoch, dstSlot, srcSlot int) {
			atomicCopy(dst.vals[dstSlot*m.valueWords:(dstSlot+1)*m.valueWords],
				src.vals[srcSlot*m.valueWords:(srcSlot+1)*m.valueWords])
		},
	)
	return m
}

// NewGrowableHashMap creates a hash map that resizes online: maxEntries
// is the initial live budget, doubled (with online migration) whenever
// occupancy nears it.
func NewGrowableHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	m := NewHashMap(name, keySize, valueSize, maxEntries)
	m.tab.growable = true
	return m
}

// Growable reports whether online resize is enabled.
func (m *HashMap) Growable() bool { return m.tab.growable }

func checkHashKey(name string, keySize int) {
	if keySize > MaxHashKeySize {
		panic(ErrBadMapSpec.Error() + ": " + name + ": hash key exceeds MaxHashKeySize")
	}
}

// Name implements Map.
func (m *HashMap) Name() string { return m.name }

// KeySize implements Map.
func (m *HashMap) KeySize() int { return m.keySize }

// ValueSize implements Map.
func (m *HashMap) ValueSize() int { return m.valueWords * 8 }

// MaxEntries implements Map: the current live budget, which grows with
// the table for growable maps.
func (m *HashMap) MaxEntries() int { return int(m.tab.maxLive.Load()) }

func (m *HashMap) valSlice(e *oaEpoch, slot int) []uint64 {
	return e.vals[slot*m.valueWords : (slot+1)*m.valueWords]
}

// Lookup implements Map. It never takes a lock: concurrent mutators are
// detected via the slot control word and retried past, and a concurrent
// resize is covered by the epoch revalidation in find. JIT map fast
// paths stay resize-safe because every call re-enters here and loads the
// current epoch pointers afresh.
func (m *HashMap) Lookup(key []byte, _ int) []uint64 {
	if len(key) != m.keySize {
		return nil
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	e, slot := m.tab.find(&kw)
	if slot < 0 {
		return nil
	}
	return m.valSlice(e, slot)
}

// Update implements Map, inserting the key if absent.
func (m *HashMap) Update(key []byte, value []uint64, _ int) error {
	if len(value) != m.valueWords {
		return ErrValueSize
	}
	return m.update(key, func(dst []uint64) { atomicCopy(dst, value) })
}

// UpdateRaw is Update from little-endian bytes, the zero-allocation
// path the map_update helper uses.
func (m *HashMap) UpdateRaw(key, raw []byte, _ int) error {
	if len(raw) != m.valueWords*8 {
		return ErrValueSize
	}
	return m.update(key, func(dst []uint64) { storeRawWords(dst, raw) })
}

func (m *HashMap) update(key []byte, fill func(dst []uint64)) error {
	if len(key) != m.keySize {
		return ErrKeySize
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	err := m.tryUpdate(&kw, fill)
	for err == ErrMapFull && m.tab.growable {
		// The insert burst outran the high-water trigger: grow
		// synchronously, finish the drain, and retry — for as long as
		// other writers fill the grown table before this one's insert
		// lands, which a burst does while its live set ramps up.
		m.tab.beginResize()
		m.tab.drainResize()
		err = m.tryUpdate(&kw, fill)
	}
	return err
}

func (m *HashMap) tryUpdate(kw *[maxKeyWords]uint64, fill func(dst []uint64)) error {
	m.tab.maybeResize()
	l := m.tab.lock(hashWords(kw, m.tab.keyWords))
	defer m.tab.unlock(l)
	e, slot, existed, err := m.tab.insertLocked(kw)
	if err != nil {
		return err
	}
	fill(m.valSlice(e, slot))
	if !existed {
		m.tab.publish(e, slot)
	}
	return nil
}

// Delete implements Map.
func (m *HashMap) Delete(key []byte) error {
	if len(key) != m.keySize {
		return ErrKeySize
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	m.tab.maybeResize()
	l := m.tab.lock(hashWords(&kw, m.tab.keyWords))
	defer m.tab.unlock(l)
	return m.tab.deleteLocked(&kw)
}

// LookupOrInit returns the value for key, atomically inserting a zero
// value if absent. The fast path is the lock-free find; only a miss
// takes the bucket writer lock. Used by the map_add helper so counting
// policies need no userspace priming and first touches cannot race.
func (m *HashMap) LookupOrInit(key []byte, _ int) []uint64 {
	if len(key) != m.keySize {
		return nil
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	if e, slot := m.tab.find(&kw); slot >= 0 {
		return m.valSlice(e, slot)
	}
	e, slot := m.initSlot(&kw)
	for slot < 0 && m.tab.growable { // as in HashMap.update
		m.tab.beginResize()
		m.tab.drainResize()
		e, slot = m.initSlot(&kw)
	}
	if slot < 0 {
		return nil
	}
	return m.valSlice(e, slot)
}

func (m *HashMap) initSlot(kw *[maxKeyWords]uint64) (*oaEpoch, int) {
	m.tab.maybeResize()
	l := m.tab.lock(hashWords(kw, m.tab.keyWords))
	defer m.tab.unlock(l)
	e, slot, existed, err := m.tab.insertLocked(kw)
	if err != nil {
		return nil, -1
	}
	if !existed {
		v := m.valSlice(e, slot)
		for i := range v {
			atomic.StoreUint64(&v[i], 0)
		}
		m.tab.publish(e, slot)
	}
	return e, slot
}

// Len reports the number of live entries.
func (m *HashMap) Len() int { return int(m.tab.count.Load()) }

// MapStats implements StatsProvider.
func (m *HashMap) MapStats() MapStats { return m.tab.stats() }

// Range calls fn for every key/value pair until fn returns false. The
// value slice aliases map storage. Intended for userspace report readers.
func (m *HashMap) Range(fn func(key []byte, value []uint64) bool) {
	m.tab.rangeSlots(m.keySize, func(e *oaEpoch, slot int, key []byte) bool {
		return fn(key, m.valSlice(e, slot))
	})
}

// --- Per-CPU hash map (lock-free, growable) ---

// cacheLineWords pads per-CPU value stripes to 64-byte boundaries so
// two CPUs' stripes never share a line.
const cacheLineWords = 8

// PerCPUHashMap shares one key table across CPUs but gives each virtual
// CPU its own value stripe, the analogue of BPF_MAP_TYPE_PERCPU_HASH:
// counting policies touch only their own cacheline, so hot keys do not
// bounce between CPUs. Key management (insert/delete/probe/resize) is
// the same engine as HashMap; an online resize re-homes every CPU's
// stripe of a migrating slot under that key's stripe lock.
type PerCPUHashMap struct {
	name       string
	keySize    int
	valueWords int
	numCPUs    int
	tab        oaTable
}

// NewPerCPUHashMap creates a per-CPU hash map over numCPUs virtual CPUs.
func NewPerCPUHashMap(name string, keySize, valueSize, maxEntries, numCPUs int) *PerCPUHashMap {
	checkSpec(name, keySize, valueSize, maxEntries)
	checkHashKey(name, keySize)
	if numCPUs <= 0 {
		panic("policy: per-cpu map needs at least one cpu")
	}
	m := &PerCPUHashMap{
		name:       name,
		keySize:    keySize,
		valueWords: valueSize / 8,
		numCPUs:    numCPUs,
	}
	m.tab.init(keySize, maxEntries)
	m.tab.setValueHooks(
		func(e *oaEpoch) {
			stripe := e.capacity * m.valueWords
			e.stride = (stripe + cacheLineWords - 1) &^ (cacheLineWords - 1)
			e.vals = make([]uint64, m.numCPUs*e.stride+cacheLineWords-1)
			e.base = alignOffset(e.vals)
		},
		func(dst, src *oaEpoch, dstSlot, srcSlot int) {
			for cpu := 0; cpu < m.numCPUs; cpu++ {
				atomicCopy(m.valSlice(dst, dstSlot, cpu), m.valSlice(src, srcSlot, cpu))
			}
		},
	)
	return m
}

// NewGrowablePerCPUHashMap creates a per-CPU hash map that resizes
// online, re-homing every CPU's value stripe during migration.
func NewGrowablePerCPUHashMap(name string, keySize, valueSize, maxEntries, numCPUs int) *PerCPUHashMap {
	m := NewPerCPUHashMap(name, keySize, valueSize, maxEntries, numCPUs)
	m.tab.growable = true
	return m
}

// Growable reports whether online resize is enabled.
func (m *PerCPUHashMap) Growable() bool { return m.tab.growable }

// alignOffset returns the element offset at which the slice is 64-byte
// aligned (the allocator only guarantees word alignment).
func alignOffset(v []uint64) int {
	if len(v) == 0 {
		return 0
	}
	for i := 0; i < cacheLineWords && i < len(v); i++ {
		if uintptr(unsafe.Pointer(&v[i]))%64 == 0 {
			return i
		}
	}
	return 0
}

// Name implements Map.
func (m *PerCPUHashMap) Name() string { return m.name }

// KeySize implements Map.
func (m *PerCPUHashMap) KeySize() int { return m.keySize }

// ValueSize implements Map.
func (m *PerCPUHashMap) ValueSize() int { return m.valueWords * 8 }

// MaxEntries implements Map: the current live budget.
func (m *PerCPUHashMap) MaxEntries() int { return int(m.tab.maxLive.Load()) }

// NumCPUs returns the number of per-CPU value stripes.
func (m *PerCPUHashMap) NumCPUs() int { return m.numCPUs }

func (m *PerCPUHashMap) valSlice(e *oaEpoch, slot, cpu int) []uint64 {
	off := e.base + cpu*e.stride + slot*m.valueWords
	return e.vals[off : off+m.valueWords]
}

// Lookup implements Map; the entry returned belongs to the given CPU.
func (m *PerCPUHashMap) Lookup(key []byte, cpu int) []uint64 {
	if len(key) != m.keySize || cpu < 0 || cpu >= m.numCPUs {
		return nil
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	e, slot := m.tab.find(&kw)
	if slot < 0 {
		return nil
	}
	return m.valSlice(e, slot, cpu)
}

// Update implements Map: it sets the value on the given CPU's stripe
// only (matching the kernel helper semantics, where a program updates
// the current CPU's copy). A fresh insert zeroes every CPU's stripe
// before publishing.
func (m *PerCPUHashMap) Update(key []byte, value []uint64, cpu int) error {
	if len(value) != m.valueWords {
		return ErrValueSize
	}
	return m.update(key, cpu, func(dst []uint64) { atomicCopy(dst, value) })
}

// UpdateRaw is Update from little-endian bytes, the zero-allocation
// path the map_update helper uses.
func (m *PerCPUHashMap) UpdateRaw(key, raw []byte, cpu int) error {
	if len(raw) != m.valueWords*8 {
		return ErrValueSize
	}
	return m.update(key, cpu, func(dst []uint64) { storeRawWords(dst, raw) })
}

func (m *PerCPUHashMap) update(key []byte, cpu int, fill func(dst []uint64)) error {
	if len(key) != m.keySize {
		return ErrKeySize
	}
	if cpu < 0 || cpu >= m.numCPUs {
		return ErrBadCPU
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	err := m.tryUpdate(&kw, cpu, fill)
	for err == ErrMapFull && m.tab.growable { // as in HashMap.update
		m.tab.beginResize()
		m.tab.drainResize()
		err = m.tryUpdate(&kw, cpu, fill)
	}
	return err
}

func (m *PerCPUHashMap) tryUpdate(kw *[maxKeyWords]uint64, cpu int, fill func(dst []uint64)) error {
	m.tab.maybeResize()
	l := m.tab.lock(hashWords(kw, m.tab.keyWords))
	defer m.tab.unlock(l)
	e, slot, existed, err := m.tab.insertLocked(kw)
	if err != nil {
		return err
	}
	if !existed {
		m.zeroSlot(e, slot)
	}
	fill(m.valSlice(e, slot, cpu))
	if !existed {
		m.tab.publish(e, slot)
	}
	return nil
}

func (m *PerCPUHashMap) zeroSlot(e *oaEpoch, slot int) {
	for cpu := 0; cpu < m.numCPUs; cpu++ {
		v := m.valSlice(e, slot, cpu)
		for i := range v {
			atomic.StoreUint64(&v[i], 0)
		}
	}
}

// Delete implements Map, removing the key from every CPU at once.
func (m *PerCPUHashMap) Delete(key []byte) error {
	if len(key) != m.keySize {
		return ErrKeySize
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	m.tab.maybeResize()
	l := m.tab.lock(hashWords(&kw, m.tab.keyWords))
	defer m.tab.unlock(l)
	return m.tab.deleteLocked(&kw)
}

// LookupOrInit returns the given CPU's value for key, inserting a
// zeroed entry (on all CPUs) if absent. Used by the map_add helper.
func (m *PerCPUHashMap) LookupOrInit(key []byte, cpu int) []uint64 {
	if len(key) != m.keySize || cpu < 0 || cpu >= m.numCPUs {
		return nil
	}
	var kw [maxKeyWords]uint64
	loadKeyWords(&kw, key)
	if e, slot := m.tab.find(&kw); slot >= 0 {
		return m.valSlice(e, slot, cpu)
	}
	e, slot := m.initSlot(&kw)
	for slot < 0 && m.tab.growable { // as in HashMap.update
		m.tab.beginResize()
		m.tab.drainResize()
		e, slot = m.initSlot(&kw)
	}
	if slot < 0 {
		return nil
	}
	return m.valSlice(e, slot, cpu)
}

func (m *PerCPUHashMap) initSlot(kw *[maxKeyWords]uint64) (*oaEpoch, int) {
	m.tab.maybeResize()
	l := m.tab.lock(hashWords(kw, m.tab.keyWords))
	defer m.tab.unlock(l)
	e, slot, existed, err := m.tab.insertLocked(kw)
	if err != nil {
		return nil, -1
	}
	if !existed {
		m.zeroSlot(e, slot)
		m.tab.publish(e, slot)
	}
	return e, slot
}

// Len reports the number of live keys.
func (m *PerCPUHashMap) Len() int { return int(m.tab.count.Load()) }

// MapStats implements StatsProvider.
func (m *PerCPUHashMap) MapStats() MapStats { return m.tab.stats() }

// Sum folds the first value word for key across all CPUs, the usual way
// userspace reads a per-CPU counter.
func (m *PerCPUHashMap) Sum(key []byte) uint64 {
	var total uint64
	for cpu := 0; cpu < m.numCPUs; cpu++ {
		if v := m.Lookup(key, cpu); v != nil {
			total += atomic.LoadUint64(&v[0])
		}
	}
	return total
}

// Range calls fn for every key with the given CPU's value slice.
func (m *PerCPUHashMap) Range(cpu int, fn func(key []byte, value []uint64) bool) {
	if cpu < 0 || cpu >= m.numCPUs {
		return
	}
	m.tab.rangeSlots(m.keySize, func(e *oaEpoch, slot int, key []byte) bool {
		return fn(key, m.valSlice(e, slot, cpu))
	})
}

// MapKindOf names the concrete kind of a map, for analysis cost models
// and telemetry labels.
func MapKindOf(m Map) string {
	switch m.(type) {
	case *ArrayMap:
		return "array"
	case *PerCPUArrayMap:
		return "percpu_array"
	case *HashMap:
		return "hash"
	case *PerCPUHashMap:
		return "percpu_hash"
	case *LockedHashMap:
		return "locked_hash"
	default:
		return "custom"
	}
}
