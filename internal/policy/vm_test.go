package policy

import (
	"strings"
	"testing"
)

// run verifies and executes a program, failing the test on any error.
func run(t *testing.T, p *Program, ctx *Ctx, env Env) uint64 {
	t.Helper()
	if _, err := Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if ctx == nil {
		ctx = NewCtx(p.Kind)
	}
	got, err := Exec(p, ctx, env)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return got
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		a, b int64
		want uint64
	}{
		{"add", OpAddImm, 7, 5, 12},
		{"add-negative", OpAddImm, 7, -9, u64(-2)},
		{"sub", OpSubImm, 7, 5, 2},
		{"sub-underflow", OpSubImm, 0, 1, ^uint64(0)},
		{"mul", OpMulImm, 6, 7, 42},
		{"div", OpDivImm, 42, 5, 8},
		{"mod", OpModImm, 42, 5, 2},
		{"and", OpAndImm, 0b1100, 0b1010, 0b1000},
		{"or", OpOrImm, 0b1100, 0b1010, 0b1110},
		{"xor", OpXorImm, 0b1100, 0b1010, 0b0110},
		{"lsh", OpLshImm, 1, 10, 1024},
		{"rsh", OpRshImm, 1024, 10, 1},
		{"rsh-logical", OpRshImm, -1, 63, 1},
		{"arsh", OpArshImm, -8, 2, u64(-2)},
		{"lsh-mask", OpLshImm, 1, 65, 2}, // shifts mask to 6 bits
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewBuilder(tc.name, KindLockAcquire).
				MovImm(R2, tc.a).
				ALUImm(tc.op, R2, tc.b).
				ReturnReg(R2).
				MustProgram()
			if got := run(t, p, nil, nil); got != tc.want {
				t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestALURegForms(t *testing.T) {
	// Same results through the register forms.
	p := NewBuilder("reg-forms", KindLockAcquire).
		MovImm(R2, 21).
		MovImm(R3, 2).
		ALUReg(OpMulReg, R2, R3).
		ReturnReg(R2).
		MustProgram()
	if got := run(t, p, nil, nil); got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestDivModByZeroRuntime(t *testing.T) {
	// eBPF semantics: x/0 == 0, x%0 == x. Use a register divisor the
	// verifier cannot constant-fold.
	div := NewBuilder("div0", KindLockAcquire).
		MovImm(R6, 1). // ctx not needed; save nothing
		LoadCtx(R2, R1, "lock_id").
		MovImm(R3, 100).
		ALUReg(OpDivReg, R3, R2). // R2 comes from ctx = 0
		ReturnReg(R3).
		MustProgram()
	if got := run(t, div, nil, nil); got != 0 {
		t.Errorf("div by zero: got %d, want 0", got)
	}
	mod := NewBuilder("mod0", KindLockAcquire).
		LoadCtx(R2, R1, "lock_id").
		MovImm(R3, 100).
		ALUReg(OpModReg, R3, R2).
		ReturnReg(R3).
		MustProgram()
	if got := run(t, mod, nil, nil); got != 100 {
		t.Errorf("mod by zero: got %d, want 100", got)
	}
}

func TestNeg(t *testing.T) {
	p := NewBuilder("neg", KindLockAcquire).
		MovImm(R2, 5).
		Neg(R2).
		ReturnReg(R2).
		MustProgram()
	if got := run(t, p, nil, nil); got != u64(-5) {
		t.Errorf("neg 5 = %d, want -5", int64(got))
	}
}

func TestJumpSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		a, b int64
		take bool
	}{
		{"jeq-taken", OpJeqImm, 5, 5, true},
		{"jeq-not", OpJeqImm, 5, 6, false},
		{"jne-taken", OpJneImm, 5, 6, true},
		{"jgt-unsigned", OpJgtImm, -1, 5, true}, // -1 is huge unsigned
		{"jsgt-signed", OpJsgtImm, -1, 5, false},
		{"jslt-signed", OpJsltImm, -1, 5, true},
		{"jlt-unsigned", OpJltImm, -1, 5, false},
		{"jge-eq", OpJgeImm, 5, 5, true},
		{"jle-eq", OpJleImm, 5, 5, true},
		{"jsge", OpJsgeImm, -3, -7, true},
		{"jsle", OpJsleImm, -7, -3, true},
		{"jset-taken", OpJsetImm, 0b1010, 0b0010, true},
		{"jset-not", OpJsetImm, 0b1010, 0b0101, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewBuilder(tc.name, KindLockAcquire).
				MovImm(R2, tc.a).
				JmpImm(tc.op, R2, tc.b, "taken").
				ReturnImm(0).
				Label("taken").
				ReturnImm(1).
				MustProgram()
			want := uint64(0)
			if tc.take {
				want = 1
			}
			if got := run(t, p, nil, nil); got != want {
				t.Errorf("got %d, want %d", got, want)
			}
		})
	}
}

func TestStackRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		st, ld Op
		imm    int64
		want   uint64
	}{
		{"byte", OpStB, OpLdxB, 0x1ff, 0xff},     // truncated to 8 bits
		{"half", OpStH, OpLdxH, 0x1ffff, 0xffff}, // 16 bits
		{"word", OpStW, OpLdxW, -1, 0xffffffff},  // 32 bits
		{"dword", OpStDW, OpLdxDW, -1, ^uint64(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewBuilder(tc.name, KindLockAcquire).
				StoreStackImm(tc.st, -8, tc.imm).
				LoadStack(tc.ld, R2, -8).
				ReturnReg(R2).
				MustProgram()
			if got := run(t, p, nil, nil); got != tc.want {
				t.Errorf("got %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestStackLittleEndianLayout(t *testing.T) {
	// Store a dword, read its lowest byte back: little-endian layout.
	p := NewBuilder("endian", KindLockAcquire).
		StoreStackImm(OpStDW, -8, 0x1122334455667788).
		LoadStack(OpLdxB, R2, -8).
		ReturnReg(R2).
		MustProgram()
	if got := run(t, p, nil, nil); got != 0x88 {
		t.Errorf("lowest byte = %#x, want 0x88", got)
	}
}

func TestCtxLoads(t *testing.T) {
	ctx := NewCtx(KindCmpNode).
		Set("curr_socket", 3).
		Set("shuffler_socket", 3).
		Set("queue_len", 17)
	// NUMA-grouping policy: return curr_socket == shuffler_socket.
	p := NewBuilder("numa", KindCmpNode).
		MovReg(R6, R1).
		LoadCtx(R2, R6, "curr_socket").
		LoadCtx(R3, R6, "shuffler_socket").
		JmpReg(OpJeqReg, R2, R3, "same").
		ReturnImm(0).
		Label("same").
		ReturnImm(1).
		MustProgram()
	if got := run(t, p, ctx, nil); got != 1 {
		t.Errorf("same socket: got %d, want 1", got)
	}
	ctx.Set("curr_socket", 4)
	if got, err := Exec(p, ctx, nil); err != nil || got != 0 {
		t.Errorf("different socket: got %d,%v; want 0,nil", got, err)
	}
}

func TestHelperEnvValues(t *testing.T) {
	env := &TestEnv{CPUID: 11, NUMA: 2, Task: 77, Prio: 140}
	env.Now.Store(123456)
	cases := []struct {
		helper HelperID
		want   uint64
	}{
		{HelperKtimeNS, 123456},
		{HelperCPU, 11},
		{HelperNUMANode, 2},
		{HelperTaskID, 77},
		{HelperTaskPrio, 140},
	}
	for _, tc := range cases {
		t.Run(tc.helper.String(), func(t *testing.T) {
			p := NewBuilder("env", KindLockAcquire).
				Call(tc.helper).
				Exit().
				MustProgram()
			if got := run(t, p, nil, env); got != tc.want {
				t.Errorf("%s = %d, want %d", tc.helper, got, tc.want)
			}
		})
	}
}

// TestTopologyHelperContract pins the range the verifier trusts cpu and
// numa_node to return: an Env outside [0,4096] faults the call. Without
// the check, this program, which verifies because r0 >> 13 is proven 0,
// would load from fp-7 under a cpu of 8192.
func TestTopologyHelperContract(t *testing.T) {
	for _, tc := range []struct {
		helper HelperID
		env    *TestEnv
		fault  bool
	}{
		{HelperCPU, &TestEnv{CPUID: 4096}, false},
		{HelperCPU, &TestEnv{CPUID: 8192}, true},
		{HelperNUMANode, &TestEnv{NUMA: -1}, true},
	} {
		p := NewBuilder("contract", KindLockAcquired).
			StoreStackImm(OpStDW, -8, 0).
			Call(tc.helper).
			ALUImm(OpRshImm, R0, 13).
			MovReg(R1, RFP).
			AddImm(R1, -8).
			AddReg(R1, R0).
			Raw(Instruction{Op: OpLdxDW, Dst: R0, Src: R1}).
			Exit().
			MustProgram()
		if _, err := Verify(p); err != nil {
			t.Fatal(err)
		}
		_, err := Exec(p, NewCtx(p.Kind), tc.env)
		if tc.fault != (err != nil) || (err != nil && !strings.Contains(err.Error(), "outside [0,4096]")) {
			t.Errorf("%s under cpu %d, node %d: err = %v, want fault %v at the call",
				tc.helper, tc.env.CPUID, tc.env.NUMA, err, tc.fault)
		}
	}
}

func TestTraceHelper(t *testing.T) {
	env := &TestEnv{}
	p := NewBuilder("trace", KindLockAcquire).
		MovImm(R1, 42).
		Call(HelperTrace).
		MovImm(R1, 43).
		Call(HelperTrace).
		ReturnImm(0).
		MustProgram()
	run(t, p, nil, env)
	traces := env.Traces()
	if len(traces) != 2 || traces[0] != 42 || traces[1] != 43 {
		t.Errorf("traces = %v, want [42 43]", traces)
	}
}

// counterProgram returns a program that increments array-map slot 0 via
// lookup + direct map-value store.
func counterProgram(t *testing.T, m Map) *Program {
	t.Helper()
	return NewBuilder("counter", KindLockAcquired).
		StoreStackImm(OpStW, -4, 0). // key = 0
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JmpImm(OpJneImm, R0, 0, "hit").
		ReturnImm(0).
		Label("hit").
		Raw(Instruction{Op: OpLdxDW, Dst: R3, Src: R0, Off: 0}).
		AddImm(R3, 1).
		Raw(Instruction{Op: OpStxDW, Dst: R0, Src: R3, Off: 0}).
		ReturnImm(1).
		MustProgram()
}

func TestMapLookupAndStore(t *testing.T) {
	m := NewArrayMap("c", 8, 4)
	p := counterProgram(t, m)
	for i := 0; i < 5; i++ {
		if got := run(t, p, NewCtx(KindLockAcquired), nil); got != 1 {
			t.Fatalf("run %d: got %d, want 1", i, got)
		}
	}
	if v := m.At(0)[0]; v != 5 {
		t.Errorf("counter = %d, want 5", v)
	}
}

func TestMapLookupMiss(t *testing.T) {
	m := NewHashMap("h", 4, 8, 4)
	p := NewBuilder("miss", KindLockAcquired).
		StoreStackImm(OpStW, -4, 9).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JmpImm(OpJeqImm, R0, 0, "null").
		ReturnImm(7).
		Label("null").
		ReturnImm(0).
		MustProgram()
	if got := run(t, p, NewCtx(KindLockAcquired), nil); got != 0 {
		t.Errorf("lookup miss: got %d, want 0 (null path)", got)
	}
}

func TestMapUpdateDeleteHelpers(t *testing.T) {
	m := NewHashMap("h", 4, 8, 8)
	upd := NewBuilder("upd", KindLockAcquired).
		StoreStackImm(OpStW, -4, 1).    // key
		StoreStackImm(OpStDW, -16, 99). // value
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		MovReg(R3, RFP).
		AddImm(R3, -16).
		Call(HelperMapUpdate).
		Exit().
		MustProgram()
	if got := run(t, upd, NewCtx(KindLockAcquired), nil); got != 0 {
		t.Fatalf("map_update returned %d", int64(got))
	}
	key := []byte{1, 0, 0, 0}
	if v := m.Lookup(key, 0); v == nil || v[0] != 99 {
		t.Fatalf("after update: %v, want [99]", v)
	}

	del := NewBuilder("del", KindLockAcquired).
		StoreStackImm(OpStW, -4, 1).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		Call(HelperMapDelete).
		Exit().
		MustProgram()
	if got := run(t, del, NewCtx(KindLockAcquired), nil); got != 0 {
		t.Fatalf("map_delete returned %d", int64(got))
	}
	if v := m.Lookup(key, 0); v != nil {
		t.Fatalf("after delete: %v, want nil", v)
	}
	// Deleting again reports an error value.
	if got := run(t, del, NewCtx(KindLockAcquired), nil); got != ^uint64(0) {
		t.Fatalf("double delete returned %d, want -1", int64(got))
	}
}

func TestMapAddHelper(t *testing.T) {
	m := NewHashMap("h", 4, 8, 8)
	p := NewBuilder("add", KindLockAcquired).
		StoreStackImm(OpStW, -4, 5).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		MovImm(R3, 3).
		Call(HelperMapAdd).
		Exit().
		MustProgram()
	for i := 0; i < 4; i++ {
		if got := run(t, p, NewCtx(KindLockAcquired), nil); got != 0 {
			t.Fatalf("map_add returned %d", int64(got))
		}
	}
	if v := m.Lookup([]byte{5, 0, 0, 0}, 0); v == nil || v[0] != 12 {
		t.Errorf("sum = %v, want [12]", v)
	}
}

func TestPerCPUMapIsolation(t *testing.T) {
	m := NewPerCPUArrayMap("pc", 8, 2, 4)
	prog := NewBuilder("percpu", KindLockAcquired).
		StoreStackImm(OpStW, -4, 0).
		LoadMapPtr(R1, m).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		MovImm(R3, 1).
		Call(HelperMapAdd).
		Exit().
		MustProgram()
	if _, err := Verify(prog); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 4; cpu++ {
		for n := 0; n <= cpu; n++ {
			env := &TestEnv{CPUID: cpu}
			if _, err := Exec(prog, NewCtx(KindLockAcquired), env); err != nil {
				t.Fatal(err)
			}
		}
	}
	// CPU c incremented c+1 times.
	for cpu := 0; cpu < 4; cpu++ {
		key := []byte{0, 0, 0, 0}
		if v := m.Lookup(key, cpu); v[0] != uint64(cpu+1) {
			t.Errorf("cpu %d counter = %d, want %d", cpu, v[0], cpu+1)
		}
	}
	if got := m.Sum(0); got != 1+2+3+4 {
		t.Errorf("Sum = %d, want 10", got)
	}
}

func TestExecRequiresVerification(t *testing.T) {
	p := NewBuilder("unverified", KindLockAcquire).ReturnImm(0).MustProgram()
	if _, err := Exec(p, NewCtx(KindLockAcquire), nil); err != ErrNotVerified {
		t.Errorf("err = %v, want ErrNotVerified", err)
	}
}

func TestExecCtxKindMismatch(t *testing.T) {
	p := NewBuilder("kind", KindCmpNode).ReturnImm(0).MustProgram()
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(p, NewCtx(KindSkipShuffle), nil); err == nil {
		t.Error("want error on ctx kind mismatch")
	}
}

func TestForwardJumpChain(t *testing.T) {
	// A chain of forward jumps computing a small decision tree.
	ctx := NewCtx(KindScheduleWaiter).Set("curr_wait_ns", 1500)
	p := NewBuilder("tree", KindScheduleWaiter).
		MovReg(R6, R1).
		LoadCtx(R2, R6, "curr_wait_ns").
		JmpImm(OpJgtImm, R2, 1000, "long").
		ReturnImm(WaiterKeepSpinning).
		Label("long").
		JmpImm(OpJgtImm, R2, 100000, "verylong").
		ReturnImm(WaiterDefault).
		Label("verylong").
		ReturnImm(WaiterParkNow).
		MustProgram()
	if got := run(t, p, ctx, nil); got != WaiterDefault {
		t.Errorf("1500ns wait: got %d, want WaiterDefault", got)
	}
}

// u64 reinterprets a signed value as its two's-complement uint64 pattern.
func u64(v int64) uint64 { return uint64(v) }

// TestExecZeroAlloc gates the interpreter's allocation contract on the
// two shapes the hook plane runs: the NUMA cmp_node decision (no helper)
// and a map_add, whose key slice crosses the Map interface — the escape
// that used to move the program stack to the heap on every run.
func TestExecZeroAlloc(t *testing.T) {
	numa := MustAssemble("numa", KindCmpNode, `
		mov   r6, r1
		ldxdw r2, [r6+curr_socket]
		ldxdw r3, [r6+shuffler_socket]
		jeq   r2, r3, group
		mov   r0, 0
		exit
	group:
		mov   r0, 1
		exit
	`, nil)
	add := NewBuilder("add", KindLockAcquired).
		StoreStackImm(OpStW, -4, 5).
		LoadMapPtr(R1, NewHashMap("h", 4, 8, 8)).
		MovReg(R2, RFP).
		AddImm(R2, -4).
		MovImm(R3, 3).
		Call(HelperMapAdd).
		Exit().
		MustProgram()
	for _, p := range []*Program{numa, add} {
		ctx := NewCtx(p.Kind)
		run(t, p, ctx, nil) // verify; first map_add inserts the key
		pinAllocs(t, "Exec/"+p.Name, 0, func() {
			if _, err := Exec(p, ctx, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}
