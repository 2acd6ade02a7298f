package policy

import "fmt"

// Kind identifies which lock hook a program is written for. It determines
// the context layout the program may read and the helpers it may call,
// exactly as eBPF program types do. The seven kinds are the seven Concord
// APIs of Table 1 in the paper.
type Kind int

const (
	// KindCmpNode decides whether the shuffler should move the examined
	// waiter forward (Table 1: cmp_node). Return 1 to move, 0 to leave.
	KindCmpNode Kind = iota
	// KindSkipShuffle decides whether this shuffler should skip its
	// shuffling round and hand the role over (Table 1: skip_shuffle).
	// Return 1 to skip.
	KindSkipShuffle
	// KindScheduleWaiter controls waking/parking/priority for a waiter
	// (Table 1: schedule_waiter). Return one of the Waiter* decisions.
	KindScheduleWaiter
	// KindLockAcquire runs when a task starts trying to acquire a lock.
	KindLockAcquire
	// KindLockContended runs when a trylock failed and the task must wait.
	KindLockContended
	// KindLockAcquired runs when the lock is actually acquired.
	KindLockAcquired
	// KindLockRelease runs when the lock is released.
	KindLockRelease

	numKinds
)

var kindNames = [...]string{
	KindCmpNode:        "cmp_node",
	KindSkipShuffle:    "skip_shuffle",
	KindScheduleWaiter: "schedule_waiter",
	KindLockAcquire:    "lock_acquire",
	KindLockContended:  "lock_contended",
	KindLockAcquired:   "lock_acquired",
	KindLockRelease:    "lock_release",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k is a known program kind.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// KindByName resolves a program kind from its Table 1 name.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// IsProfiling reports whether k is one of the four profiling hooks, which
// may not alter locking behaviour (their return value is ignored).
func (k Kind) IsProfiling() bool { return k >= KindLockAcquire && k <= KindLockRelease }

// Decisions returned by KindScheduleWaiter programs.
const (
	// WaiterDefault keeps the lock's built-in spin-then-park behaviour.
	WaiterDefault = 0
	// WaiterKeepSpinning suppresses parking (busy-wait).
	WaiterKeepSpinning = 1
	// WaiterParkNow parks the waiter immediately without further spinning.
	WaiterParkNow = 2
)

// Field describes one 8-byte slot of a hook context. All context fields
// are 64-bit and read-only: programs communicate decisions through their
// return value and persistent state through maps, never by mutating the
// context. This is the property that lets the framework argue mutual
// exclusion is preserved regardless of the loaded policy (§4.2).
type Field struct {
	Name string
	Off  int // byte offset; always a multiple of 8
}

// CtxLayout is the typed view of a hook context that the verifier checks
// loads against.
type CtxLayout struct {
	Kind   Kind
	Fields []Field
	byName map[string]int // name -> slot index
}

func newLayout(k Kind, names ...string) *CtxLayout {
	l := &CtxLayout{Kind: k, byName: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := l.byName[n]; dup {
			panic("policy: duplicate ctx field " + n)
		}
		l.Fields = append(l.Fields, Field{Name: n, Off: i * 8})
		l.byName[n] = i
	}
	return l
}

// Size returns the context size in bytes.
func (l *CtxLayout) Size() int { return len(l.Fields) * 8 }

// FieldByName resolves a field, reporting whether it exists.
func (l *CtxLayout) FieldByName(name string) (Field, bool) {
	i, ok := l.byName[name]
	if !ok {
		return Field{}, false
	}
	return l.Fields[i], true
}

// FieldAt resolves the field at a byte offset, reporting whether the
// offset names a field exactly.
func (l *CtxLayout) FieldAt(off int) (Field, bool) {
	if off < 0 || off%8 != 0 || off/8 >= len(l.Fields) {
		return Field{}, false
	}
	return l.Fields[off/8], true
}

// Slot returns the uint64 slot index for a named field and panics if the
// field does not exist; it is the write-side companion used by the
// framework when populating contexts.
func (l *CtxLayout) Slot(name string) int {
	i, ok := l.byName[name]
	if !ok {
		panic(fmt.Sprintf("policy: %s ctx has no field %q", l.Kind, name))
	}
	return i
}

// Context layouts per program kind.
//
// "shuffler_*" describes the node currently acting as the queue shuffler,
// "curr_*" the node under examination (cmp_node) or the calling waiter
// (schedule_waiter). Speed is an AMP speed class scaled by 100 so it fits
// an integer register.
//
// "shuffler_cs_avg", "curr_cs_avg" and "holder_cs_avg" are the task's mean
// critical-section length over every lock it takes, as a scaled estimate:
// a lock times each section only while its own table subscribes to
// lock_release, and one section in 16 otherwise, accounted at weight 16
// (task.CSAverage; DESIGN §7 decision 6). They are exact for a task that
// only takes such subscribed locks, unbiased otherwise, and 0 until the
// task's first timed section. "*_held_mask" is exact, always. "hold_ns"
// of lock_release is exact whenever the lock's table subscribed to
// lock_release when the section began, and 0 (unknown) when the table was
// attached mid-section or a nested timed section took the section over.
// "wait_ns" of lock_acquired runs from lock_acquire's stamp when that
// event has a subscriber, else from lock_contended's, and is 0 for an
// acquisition that neither stamped: one that never waited.
var (
	cmpNodeLayout = newLayout(KindCmpNode,
		"lock_id", "queue_len", "shuffle_round", "now_ns", "batch",
		"shuffler_task_id", "shuffler_cpu", "shuffler_socket",
		"shuffler_prio", "shuffler_weight", "shuffler_cs_avg",
		"shuffler_wait_ns", "shuffler_held_mask", "shuffler_speed_pct",
		"shuffler_quota", "shuffler_preempted",
		"curr_task_id", "curr_cpu", "curr_socket",
		"curr_prio", "curr_weight", "curr_cs_avg",
		"curr_wait_ns", "curr_held_mask", "curr_speed_pct",
		"curr_quota", "curr_preempted",
	)
	skipShuffleLayout = newLayout(KindSkipShuffle,
		"lock_id", "queue_len", "shuffle_round", "now_ns", "batch",
		"shuffler_task_id", "shuffler_cpu", "shuffler_socket",
		"shuffler_prio", "shuffler_wait_ns",
	)
	scheduleWaiterLayout = newLayout(KindScheduleWaiter,
		"lock_id", "queue_len", "now_ns",
		"curr_task_id", "curr_cpu", "curr_socket", "curr_prio",
		"curr_wait_ns", "curr_quota", "curr_preempted",
		"waiters_ahead", "holder_cs_avg", "spin_ns",
	)
	profilingLayout = func(k Kind) *CtxLayout {
		return newLayout(k,
			"lock_id", "op", "task_id", "cpu", "socket", "prio",
			"now_ns", "wait_ns", "hold_ns", "queue_len", "reader",
		)
	}
	layouts = [numKinds]*CtxLayout{
		KindCmpNode:        cmpNodeLayout,
		KindSkipShuffle:    skipShuffleLayout,
		KindScheduleWaiter: scheduleWaiterLayout,
		KindLockAcquire:    profilingLayout(KindLockAcquire),
		KindLockContended:  profilingLayout(KindLockContended),
		KindLockAcquired:   profilingLayout(KindLockAcquired),
		KindLockRelease:    profilingLayout(KindLockRelease),
	}
)

// LayoutFor returns the context layout for a program kind.
func LayoutFor(k Kind) *CtxLayout {
	if !k.Valid() {
		panic(fmt.Sprintf("policy: invalid kind %d", int(k)))
	}
	return layouts[k]
}

// Ctx is a populated hook context: one uint64 per field of the layout.
// The framework fills one per hook invocation. A Ctx reaches the program
// through an indirect CompiledFn call, so it and its words are never
// stack-allocated: a caller on a hot path keeps one in memory it already
// owns and refills it (core parks one per task, see core.fireScratch).
type Ctx struct {
	Layout *CtxLayout
	Words  []uint64
}

// NewCtx allocates a zeroed context for kind k.
func NewCtx(k Kind) *Ctx {
	l := LayoutFor(k)
	return &Ctx{Layout: l, Words: make([]uint64, len(l.Fields))}
}

// Set stores a named field value.
func (c *Ctx) Set(name string, v uint64) *Ctx {
	c.Words[c.Layout.Slot(name)] = v
	return c
}

// Get loads a named field value.
func (c *Ctx) Get(name string) uint64 { return c.Words[c.Layout.Slot(name)] }
