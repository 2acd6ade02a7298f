package locks

import (
	"sync/atomic"

	"concord/internal/task"
)

// bravoTableSize is the visible-readers table size. Dice & Kogan use a
// large global table; a per-lock table of this size behaves identically
// for the workloads here and keeps locks independent.
const bravoTableSize = 1024

// bravoInhibitMultiplier N: after a revocation costing R ns, biasing is
// re-enabled only after N*R ns, bounding worst-case writer slowdown to
// roughly 1/N (the paper's accounting argument).
const bravoInhibitMultiplier = 9

// BRAVO wraps any readers-writer lock with Biased Locking for
// Reader-Writer locks (Dice & Kogan, ATC '19), the second lock evaluated
// in the paper (Figure 2(a)). While the bias is enabled, readers publish
// themselves in a visible-readers slot and skip the underlying lock
// entirely; a writer revokes the bias by flipping it off and waiting for
// every slot to drain, then inhibits re-biasing for a window proportional
// to the revocation cost.
//
// Concord's lock-switching use case (§3.1.1) maps to toggling this bias
// at runtime: SetBias(false) degrades the lock to its neutral underlying
// implementation, SetBias(true) restores the distributed reader path.
type BRAVO struct {
	hookable
	under RWLock

	bias         atomic.Bool
	inhibitUntil atomic.Int64
	table        [bravoTableSize]atomic.Pointer[task.T]

	// fastReads / slowReads count read acquisitions taking each path
	// (reports and tests).
	fastReads atomic.Int64
	slowReads atomic.Int64
}

// NewBRAVO wraps under with reader biasing (initially enabled).
func NewBRAVO(name string, under RWLock) *BRAVO {
	b := &BRAVO{hookable: newHookable(name), under: under}
	b.bias.Store(true)
	return b
}

// Underlying returns the wrapped lock.
func (b *BRAVO) Underlying() RWLock { return b.under }

// Biased reports whether reader biasing is currently enabled.
func (b *BRAVO) Biased() bool { return b.bias.Load() }

// SetBias forces the bias state; turning it off performs a writer-style
// revocation so no fast reader remains published. This is the switch a
// Concord lock-switching policy flips.
func (b *BRAVO) SetBias(on bool) {
	if on {
		b.bias.Store(true)
		return
	}
	if b.bias.CompareAndSwap(true, false) {
		b.revoke()
	}
}

// ReadCounts reports fast-path and slow-path read acquisitions.
func (b *BRAVO) ReadCounts() (fast, slow int64) {
	return b.fastReads.Load(), b.slowReads.Load()
}

func (b *BRAVO) slotFor(t *task.T) *atomic.Pointer[task.T] {
	// Mix task identity; a multiplicative hash suffices for slot spread.
	h := uint64(t.ID()) * 0x9e3779b97f4a7c15
	return &b.table[h%bravoTableSize]
}

// RLock implements RWLock.
func (b *BRAVO) RLock(t *task.T) {
	start := b.begin(t, true)
	if b.tryFastRead(t) {
		b.acquired(t, start, 0, true)
		return
	}
	b.under.RLock(t)
	b.slowReads.Add(1)
	// Readers re-enable the bias once the inhibition window has passed.
	if !b.bias.Load() && b.now() >= b.inhibitUntil.Load() {
		b.bias.Store(true)
	}
	b.acquired(t, start, 0, true)
}

// tryFastRead publishes t as a visible reader while the bias is on.
func (b *BRAVO) tryFastRead(t *task.T) bool {
	if !b.bias.Load() {
		return false
	}
	slot := b.slotFor(t)
	if !slot.CompareAndSwap(nil, t) {
		return false
	}
	if !b.bias.Load() {
		// Bias was revoked between the check and the publish; back out
		// and take the slow path.
		slot.Store(nil)
		return false
	}
	b.fastReads.Add(1)
	return true
}

// TryRLock implements RWLock.
func (b *BRAVO) TryRLock(t *task.T) bool {
	start := b.tryBegin()
	if !b.tryFastRead(t) {
		if !b.under.TryRLock(t) {
			return false
		}
		b.slowReads.Add(1)
	}
	b.acquired(t, start, 0, true)
	return true
}

// RUnlock implements RWLock.
func (b *BRAVO) RUnlock(t *task.T) {
	b.release(t, 0, true)
	slot := b.slotFor(t)
	if slot.Load() == t {
		slot.Store(nil)
	} else {
		b.under.RUnlock(t)
	}
}

// Lock implements Lock (writer side): take the underlying write lock,
// then revoke the bias so no fast readers remain. The reported wait
// covers both.
func (b *BRAVO) Lock(t *task.T) {
	start := b.begin(t, false)
	b.under.Lock(t)
	b.revokeBias()
	b.acquired(t, start, 0, false)
}

// TryLock implements Lock.
func (b *BRAVO) TryLock(t *task.T) bool {
	start := b.tryBegin()
	if !b.under.TryLock(t) {
		return false
	}
	b.revokeBias()
	b.acquired(t, start, 0, false)
	return true
}

// revokeBias turns the bias off on behalf of a writer holding under.
func (b *BRAVO) revokeBias() {
	if b.bias.Load() {
		b.bias.Store(false)
		b.revoke()
	}
}

// revoke waits for every visible-reader slot to drain, then arms the
// re-bias inhibition window proportional to the revocation cost.
func (b *BRAVO) revoke() {
	start := b.now()
	for i := range b.table {
		for j := 0; b.table[i].Load() != nil; j++ {
			spinYield(j)
		}
	}
	cost := b.now() - start
	b.inhibitUntil.Store(b.now() + cost*bravoInhibitMultiplier)
}

// Unlock implements Lock (writer side).
func (b *BRAVO) Unlock(t *task.T) {
	b.release(t, 0, false)
	b.under.Unlock(t)
}

var _ RWLock = (*BRAVO)(nil)
