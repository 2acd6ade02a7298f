package policy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
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

// --- Value stripes ---

// cacheLineWords pads a per-CPU hash map's value stripes to 64-byte
// boundaries so two CPUs' stripes never share a line.
const cacheLineWords = 8

// stripes is a built-in map's value arena: one stripe for a shared map,
// which ignores its cpu argument, and one per CPU for a per-CPU map,
// which refuses a cpu outside [0, cpus). This is the kernel's layout
// too: BPF_MAP_TYPE_HASH and PERCPU_HASH share one struct bpf_htab, and
// ARRAY and PERCPU_ARRAY one struct bpf_array, each branching on a
// per-CPU flag only where a value lives.
type stripes struct {
	words  int // words per value
	cpus   int // 0 for a shared map
	stride int // words from one CPU's stripe to the next
	base   int // offset of stripe 0 in vals
	vals   []uint64
}

// init allocates slots values on each stripe. A shared arena is exactly
// slots × words words; padded per-CPU stripes each start a cache line.
func (s *stripes) init(slots, words, cpus int, padded bool) {
	s.words, s.cpus, s.stride = words, cpus, slots*words
	if cpus == 0 || !padded {
		s.vals = make([]uint64, max(cpus, 1)*s.stride)
		return
	}
	s.stride = (s.stride + cacheLineWords - 1) &^ (cacheLineWords - 1)
	s.vals = make([]uint64, cpus*s.stride+cacheLineWords-1)
	s.base = alignOffset(s.vals)
}

// alignOffset returns the element offset at which the slice is 64-byte
// aligned (the allocator only guarantees word alignment).
func alignOffset(v []uint64) int {
	for i := 0; i < cacheLineWords && i < len(v); i++ {
		if uintptr(unsafe.Pointer(&v[i]))%64 == 0 {
			return i
		}
	}
	return 0
}

// cpuOK reports whether cpu names a stripe: every cpu does on a shared map.
func (s *stripes) cpuOK(cpu int) bool { return s.cpus == 0 || uint(cpu) < uint(s.cpus) }

// at is slot's value on cpu's stripe; cpu must pass cpuOK.
func (s *stripes) at(slot, cpu int) []uint64 {
	off := s.base + slot*s.words
	if s.cpus != 0 {
		off += cpu * s.stride
	}
	return s.vals[off : off+s.words]
}

// zero clears slot on every stripe.
func (s *stripes) zero(slot int) {
	for cpu := range max(s.cpus, 1) {
		v := s.at(slot, cpu)
		for i := range v {
			atomic.StoreUint64(&v[i], 0)
		}
	}
}

// sum folds slot's first value word across every stripe, the usual way
// userspace reads a per-CPU counter.
func (s *stripes) sum(slot int) uint64 {
	var total uint64
	for cpu := range max(s.cpus, 1) {
		total += atomic.LoadUint64(&s.at(slot, cpu)[0])
	}
	return total
}

func checkCPUs(numCPUs int) {
	if numCPUs <= 0 {
		panic("policy: per-cpu map needs at least one cpu")
	}
}

// --- Array map ---

// ArrayMap is a fixed-size array indexed by a 32-bit little-endian key,
// the analogue of BPF_MAP_TYPE_ARRAY, or of BPF_MAP_TYPE_PERCPU_ARRAY
// when NewPerCPUArrayMap builds it. All entries always exist.
type ArrayMap struct {
	name       string
	maxEntries int
	vals       stripes // maxEntries values per stripe
}

// NewArrayMap creates an array map of maxEntries values of valueSize bytes.
func NewArrayMap(name string, valueSize, maxEntries int) *ArrayMap {
	return newArrayMap(name, valueSize, maxEntries, 0)
}

// NewPerCPUArrayMap creates an array map that gives each of numCPUs
// virtual CPUs its own copy of every entry. It is the recommended way
// for hot-path policies (profilers especially) to keep counters without
// cacheline bouncing — the same reason the kernel version exists.
func NewPerCPUArrayMap(name string, valueSize, maxEntries, numCPUs int) *ArrayMap {
	checkCPUs(numCPUs)
	return newArrayMap(name, valueSize, maxEntries, numCPUs)
}

func newArrayMap(name string, valueSize, maxEntries, cpus int) *ArrayMap {
	checkSpec(name, 4, valueSize, maxEntries)
	m := &ArrayMap{name: name, maxEntries: maxEntries}
	m.vals.init(maxEntries, valueSize/8, cpus, false)
	return m
}

// Name implements Map.
func (m *ArrayMap) Name() string { return m.name }

// KeySize implements Map. Array map keys are 4-byte indices.
func (m *ArrayMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (m *ArrayMap) ValueSize() int { return m.vals.words * 8 }

// MaxEntries implements Map.
func (m *ArrayMap) MaxEntries() int { return m.maxEntries }

// NumCPUs returns the number of per-CPU value stripes, 0 for a shared map.
func (m *ArrayMap) NumCPUs() int { return m.vals.cpus }

// value returns the entry key names on cpu's stripe, or the error an
// update of it fails with.
func (m *ArrayMap) value(key []byte, cpu int) ([]uint64, error) {
	if len(key) != 4 {
		return nil, ErrNoSuchKey
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx < 0 || idx >= m.maxEntries {
		return nil, ErrNoSuchKey
	}
	if !m.vals.cpuOK(cpu) {
		return nil, ErrBadCPU
	}
	return m.vals.at(idx, cpu), nil
}

// Lookup implements Map; on a per-CPU map the entry returned belongs to
// the given CPU.
func (m *ArrayMap) Lookup(key []byte, cpu int) []uint64 {
	v, _ := m.value(key, cpu)
	return v
}

// Update implements Map.
func (m *ArrayMap) Update(key []byte, value []uint64, cpu int) error {
	v, err := m.value(key, cpu)
	if err != nil {
		return err
	}
	if len(value) != m.vals.words {
		return ErrValueSize
	}
	atomicCopy(v, value)
	return nil
}

// UpdateRaw is Update from little-endian bytes, allocation-free.
func (m *ArrayMap) UpdateRaw(key, raw []byte, cpu int) error {
	v, err := m.value(key, cpu)
	if err != nil {
		return err
	}
	if len(raw) != m.vals.words*8 {
		return ErrValueSize
	}
	storeRawWords(v, raw)
	return nil
}

// Delete implements Map. Array maps do not support deletion.
func (m *ArrayMap) Delete([]byte) error { return ErrNoDelete }

// At returns the value slice at integer index i on CPU 0 (a userspace
// convenience).
func (m *ArrayMap) At(i int) []uint64 {
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], uint32(i))
	return m.Lookup(key[:], 0)
}

// Sum folds the first value word of entry idx across all CPUs.
func (m *ArrayMap) Sum(idx int) uint64 {
	if idx < 0 || idx >= m.maxEntries {
		return 0
	}
	return m.vals.sum(idx)
}
