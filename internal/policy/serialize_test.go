package policy

import (
	"strings"
	"testing"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	am := NewArrayMap("counters", 8, 16)
	hm := NewHashMap("waits", 8, 16, 1024)
	pm := NewPerCPUArrayMap("percpu", 8, 2, 40)

	orig := NewBuilder("roundtrip", KindLockContended).
		MovReg(R6, R1).
		LoadCtx(R2, R6, "lock_id").
		StoreStackReg(OpStxDW, -8, R2).
		LoadMapPtr(R1, am).
		LoadMapPtr(R2, hm).
		LoadMapPtr(R3, pm).
		ReturnImm(7).
		MustProgram()

	data, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Kind != orig.Kind {
		t.Errorf("identity: %s/%s", got.Name, got.Kind)
	}
	if len(got.Insns) != len(orig.Insns) {
		t.Fatalf("insns: %d vs %d", len(got.Insns), len(orig.Insns))
	}
	for i := range got.Insns {
		if got.Insns[i] != orig.Insns[i] {
			t.Errorf("insn %d: %v vs %v", i, got.Insns[i], orig.Insns[i])
		}
	}
	if len(got.Maps) != 3 {
		t.Fatalf("maps: %d", len(got.Maps))
	}
	// Maps are recreated empty with matching specs.
	if _, ok := got.Maps[0].(*ArrayMap); !ok {
		t.Errorf("map0 type %T", got.Maps[0])
	}
	if _, ok := got.Maps[1].(*HashMap); !ok {
		t.Errorf("map1 type %T", got.Maps[1])
	}
	p2, ok := got.Maps[2].(*ArrayMap)
	if !ok || p2.NumCPUs() != 40 {
		t.Errorf("map2: %T cpus", got.Maps[2])
	}
	if got.Verified() {
		t.Error("unmarshalled program pre-verified")
	}
	// And it verifies + runs.
	if _, err := Verify(got); err != nil {
		t.Fatal(err)
	}
	if v, err := Exec(got, NewCtx(KindLockContended), nil); err != nil || v != 7 {
		t.Errorf("exec: %d, %v", v, err)
	}

	// A spec stored while hash maps could grow carries "growable": true.
	// It loads as the fixed map of its recorded max_entries.
	old := `{"name":"g","kind":"cmp_node","insns":[],` +
		`"maps":[{"type":"hash","name":"grown","key_size":8,"value_size":8,"max_entries":4,"growable":true}]}`
	gp, err := Unmarshal([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := gp.Maps[0].(*HashMap)
	if !ok || gm.MaxEntries() != 4 || gm.MapStats().Capacity != 8 {
		t.Fatalf("growable spec loaded as %T (%+v), want a fixed hash map of 4 entries", gp.Maps[0], SpecOf(gp.Maps[0]))
	}
	for i := byte(0); i < 4; i++ {
		if err := gm.Update([]byte{i, 0, 0, 0, 0, 0, 0, 0}, []uint64{1}, 0); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := gm.Update([]byte{4, 0, 0, 0, 0, 0, 0, 0}, []uint64{1}, 0); err != ErrMapFull {
		t.Fatalf("insert past max_entries = %v, want ErrMapFull", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"garbage", "not json", "decode"},
		{"bad-kind", `{"name":"x","kind":"frobnicate","insns":[]}`, "unknown program kind"},
		{"bad-map", `{"name":"x","kind":"cmp_node","insns":[],"maps":[{"type":"ring","name":"m"}]}`, "unknown map type"},
		{"bad-map-spec", `{"name":"x","kind":"cmp_node","insns":[],"maps":[{"type":"array","name":"m","value_size":7,"max_entries":1}]}`, "bad map spec"},
		// Stored specs come from outside the program: a kind this package
		// does not build fails, naming its map.
		{"locked-hash", `{"name":"x","kind":"cmp_node","insns":[],"maps":[{"type":"locked_hash","name":"legacy","key_size":8,"value_size":8,"max_entries":4}]}`, `map "legacy": unknown map type "locked_hash"`},
		// So does a hash key past the table's word-compare bound.
		{"hash-large-key", `{"name":"x","kind":"cmp_node","insns":[],"maps":[{"type":"hash","name":"big","key_size":72,"value_size":8,"max_entries":4}]}`, "big: hash key exceeds MaxHashKeySize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Unmarshal([]byte(tc.data))
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSpecOf(t *testing.T) {
	cases := []struct {
		m   Map
		typ string
	}{
		{NewArrayMap("a", 8, 2), "array"},
		{NewHashMap("h", 4, 8, 2), "hash"},
		{NewPerCPUArrayMap("p", 8, 2, 3), "percpu_array"},
		{NewPerCPUHashMap("ph", 4, 8, 2, 3), "percpu_hash"},
	}
	for _, tc := range cases {
		spec := SpecOf(tc.m)
		if spec.Type != tc.typ || spec.Name != tc.m.Name() {
			t.Errorf("SpecOf(%s) = %+v", tc.m.Name(), spec)
		}
		rebuilt, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt.KeySize() != tc.m.KeySize() || rebuilt.ValueSize() != tc.m.ValueSize() ||
			rebuilt.MaxEntries() != tc.m.MaxEntries() {
			t.Errorf("rebuilt spec mismatch for %s", tc.m.Name())
		}
		if MapKindOf(rebuilt) != tc.typ {
			t.Errorf("rebuilt kind = %s, want %s", MapKindOf(rebuilt), tc.typ)
		}
		if again := SpecOf(rebuilt); again != spec {
			t.Errorf("SpecOf(rebuilt) = %+v, want %+v", again, spec)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k.Valid(); k++ {
		back, ok := KindByName(k.String())
		if !ok || back != k {
			t.Errorf("KindByName(%s) = %v,%v", k, back, ok)
		}
	}
	if _, ok := KindByName("nonsense"); ok {
		t.Error("phantom kind")
	}
	if !KindLockAcquire.IsProfiling() || KindCmpNode.IsProfiling() {
		t.Error("IsProfiling classification wrong")
	}
	if Kind(99).Valid() || Kind(-1).Valid() {
		t.Error("invalid kinds accepted")
	}
}

func TestCtxLayoutLookups(t *testing.T) {
	l := LayoutFor(KindCmpNode)
	f, ok := l.FieldByName("curr_socket")
	if !ok {
		t.Fatal("field missing")
	}
	if got, ok := l.FieldAt(f.Off); !ok || got.Name != "curr_socket" {
		t.Errorf("FieldAt(%d) = %v,%v", f.Off, got, ok)
	}
	if _, ok := l.FieldAt(f.Off + 4); ok {
		t.Error("unaligned FieldAt succeeded")
	}
	if _, ok := l.FieldAt(l.Size()); ok {
		t.Error("out-of-range FieldAt succeeded")
	}
	if l.Size() != len(l.Fields)*8 {
		t.Error("Size mismatch")
	}
	mustPanicPolicy(t, func() { l.Slot("nope") })
	mustPanicPolicy(t, func() { LayoutFor(Kind(99)) })
}

func mustPanicPolicy(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}
