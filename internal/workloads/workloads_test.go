package workloads

import (
	"testing"
	"testing/quick"
	"time"

	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

func topo() *topology.Topology { return topology.New(4, 4) }

func TestHashTableSemantics(t *testing.T) {
	tp := topo()
	h := NewHashTable(locks.NewShflLock("ht"), 6)
	tk := task.New(tp)

	if _, ok := h.Get(tk, 1); ok {
		t.Fatal("get on empty table")
	}
	h.Put(tk, 1, 100)
	h.Put(tk, 2, 200)
	if v, ok := h.Get(tk, 1); !ok || v != 100 {
		t.Fatalf("get 1: %d %v", v, ok)
	}
	h.Put(tk, 1, 111) // update
	if v, _ := h.Get(tk, 1); v != 111 {
		t.Fatalf("update lost: %d", v)
	}
	if h.Len(tk) != 2 {
		t.Fatalf("Len = %d", h.Len(tk))
	}
	if !h.Delete(tk, 1) || h.Delete(tk, 1) {
		t.Fatal("delete semantics")
	}
	if h.Len(tk) != 1 {
		t.Fatalf("Len after delete = %d", h.Len(tk))
	}
}

func TestHashTablePropertyPutGet(t *testing.T) {
	tp := topo()
	h := NewHashTable(locks.NewShflLock("ht"), 4)
	tk := task.New(tp)
	f := func(k, v uint64) bool {
		h.Put(tk, k, v)
		got, ok := h.Get(tk, k)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunHashTable(t *testing.T) {
	tp := topo()
	res := RunHashTable(locks.NewShflLock("ht"), tp, HashTableConfig{
		Workers: 4, OpsPerWorker: 500, ReadFraction: 0.8,
	})
	if res.Ops != 4*500 {
		t.Errorf("Ops = %d, want 2000", res.Ops)
	}
	if res.OpsPerMSec() <= 0 {
		t.Error("no throughput")
	}
}

func TestMMSemantics(t *testing.T) {
	tp := topo()
	m := NewMM(locks.NewRWSem("mmap_sem"), 1024)
	tk := task.New(tp)

	if m.PageFault(tk, 0) {
		t.Fatal("fault on unmapped address succeeded")
	}
	if !m.Mmap(tk, 0, 16) {
		t.Fatal("mmap failed")
	}
	if m.Mmap(tk, 8*PageSize, 4) {
		t.Fatal("overlapping mmap accepted")
	}
	if !m.PageFault(tk, 5*PageSize+123) {
		t.Fatal("fault inside mapping failed")
	}
	if m.PageFault(tk, 16*PageSize) {
		t.Fatal("fault past end succeeded")
	}
	if !m.Munmap(tk, 0) {
		t.Fatal("munmap failed")
	}
	if m.PageFault(tk, 5*PageSize) {
		t.Fatal("fault after munmap succeeded")
	}
	if m.Munmap(tk, 0) {
		t.Fatal("double munmap succeeded")
	}
	if m.Faults() != 1 {
		t.Errorf("Faults = %d, want 1", m.Faults())
	}
}

func TestMMVMAOrdering(t *testing.T) {
	tp := topo()
	m := NewMM(locks.NewRWSem("s"), 4096)
	tk := task.New(tp)
	// Insert out of order; lookups must still work (sorted VMA list).
	if !m.Mmap(tk, 100*PageSize, 10) || !m.Mmap(tk, 10*PageSize, 10) || !m.Mmap(tk, 50*PageSize, 10) {
		t.Fatal("mmap failed")
	}
	for _, page := range []uint64{12, 55, 105} {
		if !m.PageFault(tk, page*PageSize) {
			t.Errorf("fault at page %d failed", page)
		}
	}
	for _, page := range []uint64{5, 30, 70, 200} {
		if m.PageFault(tk, page*PageSize) {
			t.Errorf("fault at unmapped page %d succeeded", page)
		}
	}
}

func TestRunPageFault2AllRWLocks(t *testing.T) {
	tp := topology.Paper()
	cases := []struct {
		name string
		sem  locks.RWLock
	}{
		{"rwsem", locks.NewRWSem("s")},
		{"bravo", locks.NewBRAVO("b", locks.NewRWSem("u"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := RunPageFault2(tc.sem, tp, PageFault2Config{
				Workers: 4, FaultsPerWorker: 300, PagesPerWorker: 32,
			})
			if res.Ops != 4*300 {
				t.Errorf("Ops = %d, want 1200", res.Ops)
			}
		})
	}
}

func TestRunPageFault2WithWriters(t *testing.T) {
	tp := topo()
	res := RunPageFault2(locks.NewBRAVO("b", locks.NewRWSem("u")), tp, PageFault2Config{
		Workers: 4, FaultsPerWorker: 200, PagesPerWorker: 16, WriterEvery: 50,
	})
	if res.Ops != 4*200 {
		t.Errorf("Ops = %d, want 800", res.Ops)
	}
}

func TestRunLock2(t *testing.T) {
	tp := topo()
	res := RunLock2(locks.NewShflLock("l"), tp, Lock2Config{
		Workers: 6, OpsPerWorker: 400, CSWork: 16, OutsideWork: 16,
	})
	if res.Ops != 6*400 {
		t.Errorf("Ops = %d", res.Ops)
	}
	min, max := res.MinMaxOps()
	if min != 400 || max != 400 {
		t.Errorf("per-task = %d..%d, want 400..400", min, max)
	}
}

func TestRunLockInheritance(t *testing.T) {
	tp := topo()
	l1 := locks.NewShflLock("L1")
	l2 := locks.NewShflLock("L2")
	res := RunLockInheritance(l1, l2, tp, InheritConfig{
		ChainWorkers: 2, L2Workers: 4, VictimWorkers: 2,
		Duration: 100 * time.Millisecond,
	})
	if res.ChainOps == 0 || res.L2Ops == 0 || res.VictimOps == 0 {
		t.Errorf("a class starved: %+v", res)
	}
}

func TestRunSchedulerSubversion(t *testing.T) {
	tp := topo()
	l := locks.NewShflLock("l")
	res := RunSchedulerSubversion(l, tp, SubversionConfig{
		Hogs: 2, Mice: 4, HogWork: 2000, MiceWork: 50,
		Duration: 100 * time.Millisecond,
	})
	if res.HogOps == 0 || res.MiceOps == 0 {
		t.Errorf("a class starved: %+v", res)
	}
	if res.HogCSNS == 0 {
		t.Error("no hog CS time recorded")
	}
}

func TestRunRenameChain(t *testing.T) {
	tp := topo()
	chain := make([]locks.Lock, 12)
	for i := range chain {
		chain[i] = locks.NewShflLock("chain")
	}
	res := RunRenameChain(chain, tp, RenameConfig{
		ChainLen: 12, Renamers: 2, PointWorkers: 6,
		Duration: 100 * time.Millisecond,
	})
	if res.RenameOps == 0 || res.PointOps == 0 {
		t.Errorf("a class starved: %+v", res)
	}
	if res.MeanRenameWait() <= 0 {
		t.Error("no wait recorded")
	}
}

func TestRenameChainInheritancePolicy(t *testing.T) {
	// Smoke-test that attaching the inheritance policy to every chain
	// lock keeps everything live (the throughput comparison is the
	// bench's job — on 1 CPU it is noise).
	tp := topo()
	chain := make([]locks.Lock, 6)
	for i := range chain {
		l := locks.NewShflLock("chain", locks.WithMaxRounds(4))
		l.HookSlot().Replace("inherit", locks.InheritanceHooks())
		chain[i] = l
	}
	res := RunRenameChain(chain, tp, RenameConfig{
		ChainLen: 6, Renamers: 2, PointWorkers: 6,
		Duration: 100 * time.Millisecond,
	})
	if res.RenameOps == 0 || res.PointOps == 0 {
		t.Errorf("a class starved: %+v", res)
	}
	for _, l := range chain {
		if got := l.(*locks.ShflLock).SafetyError(); got != "" {
			t.Errorf("safety tripped: %s", got)
		}
	}
}
