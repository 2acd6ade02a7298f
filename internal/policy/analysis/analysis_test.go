package analysis

import (
	"strings"
	"testing"

	"concord/internal/policy"
)

func analyze(t *testing.T, p *policy.Program) *Report {
	t.Helper()
	r, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze(%q): %v", p.Name, err)
	}
	return r
}

func TestStraightLineCost(t *testing.T) {
	p := policy.NewBuilder("line", policy.KindLockAcquire).
		MovImm(policy.R0, 1). // CostALU
		AddImm(policy.R0, 2). // CostALU
		Exit().               // CostExit
		MustProgram()
	r := analyze(t, p)
	want := 2*CostALU + CostExit
	if r.CostBound != want {
		t.Fatalf("cost bound = %d, want %d", r.CostBound, want)
	}
	if r.LongestPath != 3 {
		t.Fatalf("longest path = %d, want 3", r.LongestPath)
	}
	if !r.Return.IsConst() || r.Return.Lo != 3 {
		t.Fatalf("return interval = %s, want 3", r.Return)
	}
}

func TestBranchTakesMaxPath(t *testing.T) {
	// One arm calls a helper (expensive), the other is a bare return;
	// the bound must follow the helper arm.
	b := policy.NewBuilder("branch", policy.KindLockAcquire)
	b.MovReg(policy.R6, policy.R1)
	b.LoadCtx(policy.R2, policy.R6, "cpu")
	b.JmpImm(policy.OpJeqImm, policy.R2, 0, "cheap")
	b.Call(policy.HelperKtimeNS)
	b.MovImm(policy.R0, 0)
	b.Exit()
	b.Label("cheap")
	b.MovImm(policy.R0, 0)
	b.Exit()
	p := b.MustProgram()
	r := analyze(t, p)

	expensive := CostALU + CostMem + CostJump +
		CostCallBase + HelperCosts[policy.HelperKtimeNS] + CostALU + CostExit
	if r.CostBound != expensive {
		t.Fatalf("cost bound = %d, want %d (the helper arm)", r.CostBound, expensive)
	}
	if r.MaxHelperCalls != 1 {
		t.Fatalf("max helper calls = %d, want 1", r.MaxHelperCalls)
	}
	if r.Facts.Deterministic {
		t.Fatal("ktime_ns program reported deterministic")
	}
}

func TestReturnIntervalJoinsExits(t *testing.T) {
	b := policy.NewBuilder("bool", policy.KindCmpNode)
	b.MovReg(policy.R6, policy.R1)
	b.LoadCtx(policy.R2, policy.R6, "curr_socket")
	b.JmpImm(policy.OpJeqImm, policy.R2, 0, "one")
	b.ReturnImm(0)
	b.Label("one")
	b.ReturnImm(1)
	p := b.MustProgram()
	r := analyze(t, p)
	if r.Return.Lo != 0 || r.Return.Hi != 1 {
		t.Fatalf("return interval = %s, want [0,1]", r.Return)
	}
	if len(r.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %+v", r.Warnings)
	}
}

func TestIntervalRefinementOnCondJump(t *testing.T) {
	// r2 = cpu() in [0,4096]; if r2 <= 7 return r2 else return 0:
	// the return interval must be [0,7].
	b := policy.NewBuilder("refine", policy.KindLockAcquire)
	b.Call(policy.HelperCPU)
	b.MovReg(policy.R2, policy.R0)
	b.JmpImm(policy.OpJgtImm, policy.R2, 7, "big")
	b.ReturnReg(policy.R2)
	b.Label("big")
	b.ReturnImm(0)
	p := b.MustProgram()
	r := analyze(t, p)
	if r.Return.Lo != 0 || r.Return.Hi != 7 {
		t.Fatalf("return interval = %s, want [0,7]", r.Return)
	}
}

func TestFootprintAndSlotIntervals(t *testing.T) {
	m := policy.NewArrayMap("counters", 8, 4)
	b := policy.NewBuilder("writer", policy.KindLockRelease)
	// key 0 at fp-8, value 42 at fp-16; map_update(counters, &key, &val).
	b.StoreStackImm(policy.OpStDW, -8, 0)
	b.StoreStackImm(policy.OpStDW, -16, 42)
	b.LoadMapPtr(policy.R1, m)
	b.MovReg(policy.R2, policy.RFP)
	b.AddImm(policy.R2, -8)
	b.MovReg(policy.R3, policy.RFP)
	b.AddImm(policy.R3, -16)
	b.Call(policy.HelperMapUpdate)
	b.ReturnImm(0)
	p := b.MustProgram()
	r := analyze(t, p)

	if len(r.Footprint) != 1 {
		t.Fatalf("footprint rows = %d, want 1", len(r.Footprint))
	}
	fp := r.Footprint[0]
	if fp.Map != "counters" || fp.WriteSites != 1 || fp.ReadSites != 0 {
		t.Fatalf("footprint = %+v", fp)
	}
	if fp.MaxValueBytes != 8 || fp.MaxKeyBytes != m.KeySize() {
		t.Fatalf("footprint bytes = key %d value %d", fp.MaxKeyBytes, fp.MaxValueBytes)
	}
	iv, ok := fp.Slots["+0"]
	if !ok || !iv.IsConst() || iv.Lo != 42 {
		t.Fatalf("slot +0 interval = %v (ok=%v), want 42", iv, ok)
	}
	if r.Facts.ReadOnly {
		t.Fatal("map_update program reported read-only")
	}
}

func TestLookupIsReadOnly(t *testing.T) {
	m := policy.NewHashMap("waits", 8, 8, 16)
	b := policy.NewBuilder("reader", policy.KindLockAcquired)
	b.StoreStackImm(policy.OpStDW, -8, 7)
	b.LoadMapPtr(policy.R1, m)
	b.MovReg(policy.R2, policy.RFP)
	b.AddImm(policy.R2, -8)
	b.Call(policy.HelperMapLookup)
	b.JmpImm(policy.OpJeqImm, policy.R0, 0, "null")
	b.Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0})
	b.Exit()
	b.Label("null")
	b.ReturnImm(0)
	p := b.MustProgram()
	r := analyze(t, p)
	if !r.Facts.ReadOnly {
		t.Fatal("lookup-only program not reported read-only")
	}
	fp := r.Footprint[0]
	if fp.WriteSites != 0 || fp.ReadSites != 2 { // lookup + value load
		t.Fatalf("footprint sites = %+v", fp)
	}
	if !r.Facts.Deterministic {
		t.Fatal("lookup-only program not reported deterministic")
	}
}

func TestHotHookWarnings(t *testing.T) {
	build := func(kind policy.Kind) *policy.Program {
		b := policy.NewBuilder("tracer", kind)
		b.MovImm(policy.R1, 7)
		b.Call(policy.HelperTrace)
		b.ReturnImm(0)
		return b.MustProgram()
	}
	hot := analyze(t, build(policy.KindCmpNode))
	if hot.Facts.HotPathClean {
		t.Fatal("trace on cmp_node reported hot-path clean")
	}
	found := false
	for _, w := range hot.Warnings {
		if w.Code == WarnTraceInHotHook && w.PC == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %s warning: %+v", WarnTraceInHotHook, hot.Warnings)
	}

	cold := analyze(t, build(policy.KindLockAcquire))
	if !cold.Facts.HotPathClean {
		t.Fatal("trace on profiling hook flagged")
	}
	for _, w := range cold.Warnings {
		if w.Code == WarnTraceInHotHook {
			t.Fatalf("profiling hook got hot-hook warning: %+v", w)
		}
	}
}

func TestRandWarningAndReturnRange(t *testing.T) {
	b := policy.NewBuilder("roulette", policy.KindCmpNode)
	b.Call(policy.HelperRand)
	b.Exit() // returns the raw rand value: unbounded decision
	p := b.MustProgram()
	r := analyze(t, p)
	codes := map[string]bool{}
	for _, w := range r.Warnings {
		codes[w.Code] = true
	}
	if !codes[WarnRandInHotHook] {
		t.Fatalf("missing %s warning: %+v", WarnRandInHotHook, r.Warnings)
	}
	if !codes[WarnReturnUnknown] {
		t.Fatalf("missing %s warning: %+v", WarnReturnUnknown, r.Warnings)
	}
	if r.Facts.Deterministic {
		t.Fatal("rand program reported deterministic")
	}
}

func TestReturnOutOfRangeWarning(t *testing.T) {
	p := policy.NewBuilder("wide", policy.KindScheduleWaiter).
		ReturnImm(9). // valid decisions are 0..2
		MustProgram()
	r := analyze(t, p)
	found := false
	for _, w := range r.Warnings {
		if w.Code == WarnReturnRange && strings.Contains(w.Msg, "9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %s warning: %+v", WarnReturnRange, r.Warnings)
	}
}

func TestMapAddSlotIsTop(t *testing.T) {
	m := policy.NewArrayMap("acc", 8, 1)
	b := policy.NewBuilder("adder", policy.KindLockContended)
	b.StoreStackImm(policy.OpStDW, -8, 0)
	b.LoadMapPtr(policy.R1, m)
	b.MovReg(policy.R2, policy.RFP)
	b.AddImm(policy.R2, -8)
	b.MovImm(policy.R3, 1)
	b.Call(policy.HelperMapAdd)
	b.ReturnImm(0)
	r := analyze(t, b.MustProgram())
	iv, ok := r.Footprint[0].Slots["+0"]
	if !ok || !iv.IsTop() {
		t.Fatalf("map_add slot interval = %v (ok=%v), want top", iv, ok)
	}
}

func TestAnalyzeRejectsUnverifiable(t *testing.T) {
	// Missing return value: the verifier rejects, so must Analyze.
	p := policy.NewBuilder("bad", policy.KindCmpNode).Exit().MustProgram()
	if _, err := Analyze(p); err == nil {
		t.Fatal("Analyze accepted an unverifiable program")
	}
}

func TestMaxCost(t *testing.T) {
	a := &Report{CostBound: 10}
	b := &Report{CostBound: 300}
	got := MaxCost(map[policy.Kind]*Report{policy.KindCmpNode: a, policy.KindSkipShuffle: b})
	if got != 300 {
		t.Fatalf("MaxCost = %d, want 300", got)
	}
	if MaxCost(nil) != 0 {
		t.Fatal("MaxCost(nil) != 0")
	}
}

func TestIntervalString(t *testing.T) {
	cases := []struct {
		iv   Interval
		want string
	}{
		{Top, "top"},
		{Const(7), "7"},
		{Interval{Lo: 0, Hi: 1}, "[0,1]"},
	}
	for _, c := range cases {
		if got := c.iv.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.iv, got, c.want)
		}
	}
}

// TestStoreOverlapDropsSlot pins the slot domain against the VM: a store
// that overlaps a tracked 8-byte stack slot, judged by byte range, drops
// it, so a reload reads what the VM reads and not the older value.
func TestStoreOverlapDropsSlot(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *policy.Builder)
	}{
		{"narrow-into-upper-half", func(b *policy.Builder) {
			// stxdw [fp-8], 5; stw [fp-4], 1; ldxdw r0, [fp-8]
			b.MovImm(policy.R1, 5)
			b.StoreStackReg(policy.OpStxDW, -8, policy.R1)
			b.StoreStackImm(policy.OpStW, -4, 1)
			b.LoadStack(policy.OpLdxDW, policy.R0, -8)
		}},
		{"unaligned-dword", func(b *policy.Builder) {
			// stxdw [fp-16], 5; stdw [fp-12], 7; ldxdw r0, [fp-16]
			b.MovImm(policy.R1, 5)
			b.StoreStackReg(policy.OpStxDW, -16, policy.R1)
			b.StoreStackImm(policy.OpStDW, -12, 7)
			b.LoadStack(policy.OpLdxDW, policy.R0, -16)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := policy.NewBuilder(c.name, policy.KindLockAcquire)
			c.build(b)
			b.Exit()
			p := b.MustProgram()
			r := analyze(t, p)
			r0, err := policy.Exec(p, policy.NewCtx(p.Kind), nil)
			if err != nil {
				t.Fatal(err)
			}
			if v := int64(r0); v < r.Return.Lo || v > r.Return.Hi {
				t.Fatalf("analysis claims return %s, VM returns %d", r.Return, v)
			}
		})
	}
}
