package policy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Map errors.
var (
	ErrKeySize    = errors.New("policy: bad key size")
	ErrValueSize  = errors.New("policy: bad value size")
	ErrMapFull    = errors.New("policy: map is full")
	ErrNoDelete   = errors.New("policy: map type does not support delete")
	ErrNoSuchKey  = errors.New("policy: no such key")
	ErrBadCPU     = errors.New("policy: cpu index out of range")
	ErrBadMapSpec = errors.New("policy: bad map specification")
)

// Map is persistent state shared between policy invocations (and with
// userspace), the analogue of an eBPF map.
//
// Values are stored as 64-bit words and each word is read and written
// atomically, both by programs (the verifier only admits 8-byte aligned,
// 8-byte wide access to map values) and by the accessor methods here.
// This gives the same "racy but memory-safe" semantics in-kernel eBPF
// maps have, without undefined behaviour on the Go side.
type Map interface {
	Name() string
	// KeySize is the key size in bytes.
	KeySize() int
	// ValueSize is the value size in bytes; always a multiple of 8.
	ValueSize() int
	// MaxEntries is the capacity of the map.
	MaxEntries() int
	// Lookup returns the value words for key on the given (virtual) CPU,
	// or nil if the key is absent. The returned slice aliases map
	// storage: word-atomic stores through it are visible to all readers.
	Lookup(key []byte, cpu int) []uint64
	// Update sets the value for key on the given CPU, inserting if absent.
	Update(key []byte, value []uint64, cpu int) error
	// Delete removes key from the map.
	Delete(key []byte) error
}

func checkSpec(name string, keySize, valueSize, maxEntries int) {
	if keySize <= 0 || valueSize <= 0 || valueSize%8 != 0 || maxEntries <= 0 {
		panic(fmt.Sprintf("%v: %s key=%d value=%d entries=%d",
			ErrBadMapSpec, name, keySize, valueSize, maxEntries))
	}
}

// atomicCopy stores src into dst one word at a time.
func atomicCopy(dst, src []uint64) {
	for i := range dst {
		var w uint64
		if i < len(src) {
			w = atomic.LoadUint64(&src[i])
		}
		atomic.StoreUint64(&dst[i], w)
	}
}

// rawUpdater is the zero-allocation update path: the map decodes
// little-endian value bytes (the program's stack region) directly into
// its arena instead of going through a freshly allocated word slice.
// Every builtin map kind implements it; the map_update helper falls
// back to Update only for custom Map implementations.
type rawUpdater interface {
	UpdateRaw(key, raw []byte, cpu int) error
}

// --- Array map ---

// ArrayMap is a fixed-size array indexed by a 32-bit little-endian key,
// the analogue of BPF_MAP_TYPE_ARRAY. All entries always exist.
type ArrayMap struct {
	name       string
	valueWords int
	entries    []uint64 // maxEntries * valueWords
	maxEntries int
}

// NewArrayMap creates an array map of maxEntries values of valueSize bytes.
func NewArrayMap(name string, valueSize, maxEntries int) *ArrayMap {
	checkSpec(name, 4, valueSize, maxEntries)
	return &ArrayMap{
		name:       name,
		valueWords: valueSize / 8,
		entries:    make([]uint64, maxEntries*(valueSize/8)),
		maxEntries: maxEntries,
	}
}

// Name implements Map.
func (m *ArrayMap) Name() string { return m.name }

// KeySize implements Map. Array map keys are 4-byte indices.
func (m *ArrayMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (m *ArrayMap) ValueSize() int { return m.valueWords * 8 }

// MaxEntries implements Map.
func (m *ArrayMap) MaxEntries() int { return m.maxEntries }

func (m *ArrayMap) index(key []byte) (int, bool) {
	if len(key) != 4 {
		return 0, false
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx < 0 || idx >= m.maxEntries {
		return 0, false
	}
	return idx, true
}

// Lookup implements Map.
func (m *ArrayMap) Lookup(key []byte, _ int) []uint64 {
	idx, ok := m.index(key)
	if !ok {
		return nil
	}
	return m.entries[idx*m.valueWords : (idx+1)*m.valueWords]
}

// Update implements Map.
func (m *ArrayMap) Update(key []byte, value []uint64, cpu int) error {
	v := m.Lookup(key, cpu)
	if v == nil {
		return ErrNoSuchKey
	}
	if len(value) != m.valueWords {
		return ErrValueSize
	}
	atomicCopy(v, value)
	return nil
}

// UpdateRaw is Update from little-endian bytes, allocation-free.
func (m *ArrayMap) UpdateRaw(key, raw []byte, cpu int) error {
	v := m.Lookup(key, cpu)
	if v == nil {
		return ErrNoSuchKey
	}
	if len(raw) != m.valueWords*8 {
		return ErrValueSize
	}
	storeRawWords(v, raw)
	return nil
}

// Delete implements Map. Array maps do not support deletion.
func (m *ArrayMap) Delete([]byte) error { return ErrNoDelete }

// At returns the value slice at integer index i (a userspace convenience).
func (m *ArrayMap) At(i int) []uint64 {
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], uint32(i))
	return m.Lookup(key[:], 0)
}

// --- Per-CPU array map ---

// PerCPUArrayMap gives each virtual CPU its own array slice, the analogue
// of BPF_MAP_TYPE_PERCPU_ARRAY. It is the recommended way for hot-path
// policies (profilers especially) to keep counters without cacheline
// bouncing — the same reason the kernel version exists.
type PerCPUArrayMap struct {
	name       string
	valueWords int
	maxEntries int
	numCPUs    int
	entries    []uint64 // numCPUs * maxEntries * valueWords
}

// NewPerCPUArrayMap creates a per-CPU array map over numCPUs virtual CPUs.
func NewPerCPUArrayMap(name string, valueSize, maxEntries, numCPUs int) *PerCPUArrayMap {
	checkSpec(name, 4, valueSize, maxEntries)
	if numCPUs <= 0 {
		panic("policy: per-cpu map needs at least one cpu")
	}
	return &PerCPUArrayMap{
		name:       name,
		valueWords: valueSize / 8,
		maxEntries: maxEntries,
		numCPUs:    numCPUs,
		entries:    make([]uint64, numCPUs*maxEntries*(valueSize/8)),
	}
}

// Name implements Map.
func (m *PerCPUArrayMap) Name() string { return m.name }

// KeySize implements Map.
func (m *PerCPUArrayMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (m *PerCPUArrayMap) ValueSize() int { return m.valueWords * 8 }

// MaxEntries implements Map.
func (m *PerCPUArrayMap) MaxEntries() int { return m.maxEntries }

// NumCPUs returns the number of per-CPU slices.
func (m *PerCPUArrayMap) NumCPUs() int { return m.numCPUs }

// Lookup implements Map; the entry returned belongs to the given CPU.
func (m *PerCPUArrayMap) Lookup(key []byte, cpu int) []uint64 {
	if len(key) != 4 {
		return nil
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx < 0 || idx >= m.maxEntries || cpu < 0 || cpu >= m.numCPUs {
		return nil
	}
	base := (cpu*m.maxEntries + idx) * m.valueWords
	return m.entries[base : base+m.valueWords]
}

// Update implements Map.
func (m *PerCPUArrayMap) Update(key []byte, value []uint64, cpu int) error {
	v := m.Lookup(key, cpu)
	if v == nil {
		return ErrNoSuchKey
	}
	if len(value) != m.valueWords {
		return ErrValueSize
	}
	atomicCopy(v, value)
	return nil
}

// UpdateRaw is Update from little-endian bytes, allocation-free.
func (m *PerCPUArrayMap) UpdateRaw(key, raw []byte, cpu int) error {
	v := m.Lookup(key, cpu)
	if v == nil {
		return ErrNoSuchKey
	}
	if len(raw) != m.valueWords*8 {
		return ErrValueSize
	}
	storeRawWords(v, raw)
	return nil
}

// Delete implements Map.
func (m *PerCPUArrayMap) Delete([]byte) error { return ErrNoDelete }

// Sum folds the first value word of entry idx across all CPUs, the usual
// way userspace reads a per-CPU counter.
func (m *PerCPUArrayMap) Sum(idx int) uint64 {
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], uint32(idx))
	var total uint64
	for cpu := 0; cpu < m.numCPUs; cpu++ {
		if v := m.Lookup(key[:], cpu); v != nil {
			total += atomic.LoadUint64(&v[0])
		}
	}
	return total
}
