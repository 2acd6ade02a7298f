package policydsl

import (
	"strings"
	"testing"
	"unsafe"

	"concord/internal/policy"
)

// compileOne compiles a single-policy source and verifies it.
func compileOne(t *testing.T, src string) (*policy.Program, *CompiledUnit) {
	t.Helper()
	u, err := CompileAndVerify(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(u.Programs) == 0 {
		t.Fatal("no programs")
	}
	return u.Programs[0], u
}

// evalKind compiles `policy <kind> t { <body> }` and runs it.
func evalKind(t *testing.T, kind, body string, ctx *policy.Ctx, env policy.Env) uint64 {
	t.Helper()
	prog, _ := compileOne(t, "policy "+kind+" t {\n"+body+"\n}")
	if ctx == nil {
		k, _ := policy.KindByName(kind)
		ctx = policy.NewCtx(k)
	}
	got, err := policy.Exec(prog, ctx, env)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return got
}

// eval runs a lock_acquire-kind body (generic scratch hook).
func eval(t *testing.T, body string) uint64 {
	t.Helper()
	return evalKind(t, "lock_acquire", body, nil, nil)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want uint64
	}{
		{"1 + 2", 3},
		{"10 - 4", 6},
		{"6 * 7", 42},
		{"42 / 5", 8},
		{"42 % 5", 2},
		{"0xff & 0x0f", 0x0f},
		{"0xf0 | 0x0f", 0xff},
		{"0xff ^ 0x0f", 0xf0},
		{"1 << 10", 1024},
		{"1024 >> 3", 128},
		{"2 + 3 * 4", 14},   // precedence
		{"(2 + 3) * 4", 20}, // grouping
		{"10 - 3 - 2", 5},   // left assoc
		{"-5 + 8", 3},       // unary minus
		{"~0 >> 60", 15},    // unary not
		{"!0", 1},
		{"!7", 0},
		{"100 / 0", 0}, // eBPF semantics
		{"100 % 0", 100},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			if got := eval(t, "return "+tc.expr+";"); got != tc.want {
				t.Errorf("%s = %d, want %d", tc.expr, got, tc.want)
			}
		})
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		want uint64
	}{
		{"3 < 5", 1}, {"5 < 3", 0}, {"3 <= 3", 1},
		{"5 > 3", 1}, {"3 > 5", 0}, {"3 >= 4", 0},
		{"4 == 4", 1}, {"4 != 4", 0},
		{"1 && 2", 1}, {"1 && 0", 0}, {"0 && 1", 0},
		{"0 || 0", 0}, {"0 || 9", 1}, {"2 || 0", 1},
		{"1 < 2 && 2 < 3", 1},
		{"1 ? 42 : 7", 42},
		{"0 ? 42 : 7", 7},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			if got := eval(t, "return "+tc.expr+";"); got != tc.want {
				t.Errorf("%s = %d, want %d", tc.expr, got, tc.want)
			}
		})
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	// The right operand of && must not run when the left is false:
	// trace() is the observable side effect.
	env := &policy.TestEnv{}
	got := evalKind(t, "lock_acquire", `
		let x = 0 && trace(1);
		let y = 1 || trace(2);
		return x + y * 10;
	`, nil, env)
	if got != 10 {
		t.Errorf("got %d, want 10", got)
	}
	if n := len(env.Traces()); n != 0 {
		t.Errorf("short-circuit leaked %d side effects", n)
	}
}

func TestLetAssignAndLocals(t *testing.T) {
	got := eval(t, `
		let a = 5;
		let b = a * 3;
		a = b + 1;
		return a + b;  // 16 + 15
	`)
	if got != 31 {
		t.Errorf("got %d, want 31", got)
	}
}

func TestIfElseChains(t *testing.T) {
	src := `
		let x = %d;
		if (x < 10) { return 1; }
		else if (x < 20) { return 2; }
		else { return 3; }
	`
	for _, tc := range []struct{ x, want uint64 }{{5, 1}, {15, 2}, {25, 3}} {
		body := strings.Replace(src, "%d", itoa(tc.x), 1)
		if got := eval(t, body); got != tc.want {
			t.Errorf("x=%d: got %d, want %d", tc.x, got, tc.want)
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestForUnrolling(t *testing.T) {
	got := eval(t, `
		let sum = 0;
		for i in 0..10 {
			sum = sum + i;
		}
		return sum;
	`)
	if got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
}

func TestNestedFor(t *testing.T) {
	got := eval(t, `
		let n = 0;
		for i in 0..4 {
			for j in 0..4 {
				n = n + i * j;
			}
		}
		return n;  // (0+1+2+3)^2 = 36
	`)
	if got != 36 {
		t.Errorf("got %d, want 36", got)
	}
}

func TestImplicitReturnZero(t *testing.T) {
	if got := eval(t, "let x = 5;"); got != 0 {
		t.Errorf("implicit return = %d, want 0", got)
	}
}

func TestCtxFieldAccess(t *testing.T) {
	ctx := policy.NewCtx(policy.KindCmpNode).
		Set("curr_socket", 3).
		Set("shuffler_socket", 3).
		Set("curr_wait_ns", 5000)
	got := evalKind(t, "cmp_node", `
		return ctx.curr_socket == ctx.shuffler_socket && ctx.curr_wait_ns < 10000;
	`, ctx, nil)
	if got != 1 {
		t.Errorf("got %d, want 1", got)
	}
}

func TestBuiltins(t *testing.T) {
	env := &policy.TestEnv{CPUID: 7, NUMA: 2, Task: 99, Prio: 120}
	env.Now.Store(1234)
	got := evalKind(t, "lock_acquire", `
		trace(cpu());
		trace(numa_node());
		trace(now());
		trace(task_id());
		trace(task_prio());
		return rand() >= 0;  // always true, exercises the helper
	`, nil, env)
	if got != 1 {
		t.Errorf("got %d, want 1", got)
	}
	tr := env.Traces()
	want := []uint64{7, 2, 1234, 99, 120}
	if len(tr) != len(want) {
		t.Fatalf("traces %v, want %v", tr, want)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("trace[%d] = %d, want %d", i, tr[i], want[i])
		}
	}
}

func TestMapsReadWrite(t *testing.T) {
	src := `
		map counters array(value = 8, entries = 4);

		policy lock_acquired count {
			counters[1] = counters[1] + 5;
			counters[2] += 3;
			return counters[1] + counters[2] + counters[3];
		}
	`
	u, err := CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := u.Programs[0]
	ctx := policy.NewCtx(policy.KindLockAcquired)
	got, err := policy.Exec(prog, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 { // 5 + 3 + 0
		t.Errorf("got %d, want 8", got)
	}
	// Run again: the array map persists across invocations.
	got, _ = policy.Exec(prog, ctx, nil)
	if got != 16 {
		t.Errorf("second run: got %d, want 16", got)
	}
	am := u.Maps["counters"].(*policy.ArrayMap)
	if am.At(1)[0] != 10 || am.At(2)[0] != 6 {
		t.Errorf("map state: %d, %d", am.At(1)[0], am.At(2)[0])
	}
}

func TestHashMapMissReadsZero(t *testing.T) {
	src := `
		map seen hash(key = 8, value = 8, entries = 16);
		policy lock_acquire p {
			let before = seen[42];
			seen[42] += 7;
			return before * 100 + seen[42];
		}
	`
	u, err := CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := policy.Exec(u.Programs[0], policy.NewCtx(policy.KindLockAcquire), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 { // miss reads 0, then map_add inserts
		t.Errorf("got %d, want 7", got)
	}
}

func TestMultiplePoliciesShareMaps(t *testing.T) {
	src := `
		map hits percpu_array(value = 8, entries = 1, cpus = 4);

		policy lock_acquire a { hits[0] += 1; return 0; }
		policy lock_release b { hits[0] += 10; return 0; }
	`
	u, err := CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Programs) != 2 {
		t.Fatalf("got %d programs", len(u.Programs))
	}
	env := &policy.TestEnv{CPUID: 1}
	a, _ := u.Program("a")
	b, _ := u.Program("b")
	if _, err := policy.Exec(a, policy.NewCtx(policy.KindLockAcquire), env); err != nil {
		t.Fatal(err)
	}
	if _, err := policy.Exec(b, policy.NewCtx(policy.KindLockRelease), env); err != nil {
		t.Fatal(err)
	}
	pc := u.Maps["hits"].(*policy.ArrayMap)
	if got := pc.Sum(0); got != 11 {
		t.Errorf("shared map sum = %d, want 11", got)
	}
}

// TestNamesDoNotPinSource: the names a compiled unit keeps are copies, so
// a loaded program or map does not keep its whole DSL source reachable.
func TestNamesDoNotPinSource(t *testing.T) {
	src := `map worstwait hash(key = 8, value = 8, entries = 4);
		policy lock_acquired worst { worstwait[ctx.lock_id] = ctx.wait_ns; return 0; }`
	u, err := CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inSource := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= start && p < start+uintptr(len(src))
	}
	p := u.Programs[0]
	if inSource(p.Name) {
		t.Errorf("program name %q is a substring of the source", p.Name)
	}
	for _, m := range p.Maps {
		if inSource(m.Name()) {
			t.Errorf("map name %q is a substring of the source", m.Name())
		}
	}
}

func TestHashKindsEndToEnd(t *testing.T) {
	src := `
		map stripes percpu_hash(key = 8, value = 8, entries = 16, cpus = 4);
		map global hash(key = 8, value = 8, entries = 16);

		policy lock_acquire p {
			stripes[42] += 1;
			global[42] += 2;
			return global[42];
		}
	`
	u, err := CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := u.Program("p")
	// Two runs on different CPUs: the per-CPU map counts once per
	// stripe, the hash map accumulates globally.
	for cpu := 0; cpu < 2; cpu++ {
		if _, err := policy.Exec(p, policy.NewCtx(policy.KindLockAcquire), &policy.TestEnv{CPUID: cpu}); err != nil {
			t.Fatal(err)
		}
	}
	key := make([]byte, 8)
	key[0] = 42
	ph := u.Maps["stripes"].(*policy.HashMap)
	if got := ph.Sum(key); got != 2 {
		t.Errorf("percpu_hash sum = %d, want 2", got)
	}
	if v := ph.Lookup(key, 0); v == nil || v[0] != 1 {
		t.Errorf("cpu0 stripe = %v, want [1]", v)
	}
	h := u.Maps["global"].(*policy.HashMap)
	if v := h.Lookup(key, 0); v == nil || v[0] != 4 {
		t.Errorf("hash value = %v, want [4]", v)
	}
}

func TestNUMAPolicyEndToEnd(t *testing.T) {
	// The flagship policy, straight from the paper's motivation, written
	// in the DSL instead of assembly.
	prog, _ := compileOne(t, `
		policy cmp_node numa {
			return ctx.curr_socket == ctx.shuffler_socket;
		}
	`)
	ctx := policy.NewCtx(policy.KindCmpNode).Set("curr_socket", 4).Set("shuffler_socket", 4)
	if got, _ := policy.Exec(prog, ctx, nil); got != 1 {
		t.Error("same socket not grouped")
	}
	ctx.Set("curr_socket", 5)
	if got, _ := policy.Exec(prog, ctx, nil); got != 0 {
		t.Error("cross socket grouped")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no policies"},
		{"bad-kind", "policy frobnicate p { return 0; }", "unknown hook kind"},
		{"bad-field", "policy cmp_node p { return ctx.nonsense; }", "no ctx field"},
		{"unknown-var", "policy cmp_node p { return x; }", "unknown variable"},
		{"unknown-map", "policy cmp_node p { return m[0]; }", "unknown map"},
		{"assign-undeclared", "policy cmp_node p { x = 1; return 0; }", "undeclared variable"},
		{"dup-var", "policy cmp_node p { let x = 1; let x = 2; return 0; }", "duplicate variable"},
		{"dup-policy", "policy cmp_node p { return 0; } policy cmp_node p { return 0; }", "duplicate policy"},
		{"dup-map", "map m array(value=8, entries=1); map m array(value=8, entries=1); policy cmp_node p { return 0; }", "duplicate map"},
		{"loop-too-big", "policy cmp_node p { for i in 0..10000 { trace(i); } return 0; }", "unrolls"},
		{"loop-inverted", "policy cmp_node p { for i in 5..2 { trace(i); } return 0; }", "inverted"},
		{"bad-map-kind", "map m ring(value=8, entries=1); policy cmp_node p { return 0; }", "unknown map kind"},
		// Hash maps have a fixed capacity: no grow parameter, no
		// mutex-based second kind.
		{"grow", "map m hash(key=8, value=8, entries=4, grow=1); policy cmp_node p { return 0; }", "unknown map parameter"},
		{"locked-hash", "map m locked_hash(key=8, value=8, entries=4); policy cmp_node p { return 0; }", "unknown map kind"},
		{"bad-value-size", "map m array(value=16, entries=1); policy cmp_node p { return 0; }", "value = 8"},
		{"bad-builtin", "policy cmp_node p { return frob(); }", "unknown builtin"},
		{"builtin-arity", "policy cmp_node p { return cpu(1); }", "0 argument"},
		{"unterminated", "policy cmp_node p { return 0;", "unterminated block"},
		{"bad-token", "policy cmp_node p { return 0 @ 1; }", "unexpected character"},
		{"bad-syntax", "policy cmp_node p { let = 3; }", "expected"},
		{"trace-in-shuffler-ok", "", ""}, // placeholder, tested below
	}
	for _, tc := range cases {
		if tc.src == "" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			_, err := CompileAndVerify(tc.src)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestShufflerPathRestrictionSurfaces(t *testing.T) {
	// map_update is not allowed in cmp_node programs (mutation on the
	// shuffler path); the verifier rejects, and CompileAndVerify
	// surfaces it.
	src := `
		map m array(value=8, entries=1);
		policy cmp_node p { m[0] = 1; return 0; }
	`
	_, err := CompileAndVerify(src)
	if err == nil || !strings.Contains(err.Error(), "not allowed") {
		t.Errorf("err = %v, want helper restriction", err)
	}
	// map_add (atomic) IS allowed.
	src2 := `
		map m array(value=8, entries=1);
		policy cmp_node p { m[0] += 1; return 0; }
	`
	if _, err := CompileAndVerify(src2); err != nil {
		t.Errorf("map_add in cmp_node rejected: %v", err)
	}
}

func TestDeepExpression(t *testing.T) {
	// Deep nesting exercises spill-slot allocation.
	expr := "1"
	for i := 0; i < 30; i++ {
		expr = "(" + expr + " + 1)"
	}
	if got := eval(t, "return "+expr+";"); got != 31 {
		t.Errorf("got %d, want 31", got)
	}
}

func TestComments(t *testing.T) {
	got := eval(t, `
		// line comment
		let x = 1; /* block
		              comment */ let y = 2;
		return x + y; // trailing
	`)
	if got != 3 {
		t.Errorf("got %d, want 3", got)
	}
}

func TestGeneratedCodeAlwaysVerifies(t *testing.T) {
	// A grab-bag of valid programs; all must pass the verifier (the
	// compiler's forward-jump-only guarantee).
	sources := []string{
		`policy skip_shuffle s { return ctx.shuffle_round > 8; }`,
		`policy schedule_waiter w {
			if (ctx.curr_preempted == 1) { return 2; }
			if (ctx.spin_ns < 1000) { return 1; }
			return 0;
		}`,
		`map w hash(key=8, value=8, entries=64);
		 policy lock_contended c {
			w[ctx.lock_id] += 1;
			return 0;
		}`,
		`policy cmp_node amp {
			let faster = ctx.curr_speed_pct > ctx.shuffler_speed_pct;
			let starving = ctx.curr_wait_ns > 1000000;
			return faster || starving;
		}`,
		`policy cmp_node inherit {
			return ctx.curr_held_mask != 0 && ctx.shuffler_held_mask == 0;
		}`,
	}
	for i, src := range sources {
		u, err := CompileAndVerify(src)
		if err != nil {
			t.Errorf("source %d: %v", i, err)
			continue
		}
		for _, p := range u.Programs {
			if !p.Verified() {
				t.Errorf("source %d: %q not verified", i, p.Name)
			}
		}
	}
}
