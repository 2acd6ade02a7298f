// Public-API tests: everything a downstream user of package concord
// does, exercised through the facade only (no internal imports). This
// doubles as living documentation of the supported surface.
package concord_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"concord"
)

func TestPublicQuickstartWorkflow(t *testing.T) {
	topo := concord.PaperTopology()
	fw := concord.New(topo)
	lock := concord.NewShflLock("api_lock", concord.WithMaxRounds(64))
	if err := fw.RegisterLock(lock); err != nil {
		t.Fatal(err)
	}

	prog := concord.MustAssemble("numa", concord.KindCmpNode, `
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
	if _, err := fw.LoadPolicy("numa", prog); err != nil {
		t.Fatal(err)
	}
	att, err := fw.Attach("api_lock", "numa")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := concord.NewTaskOnCPU(topo, (w%2)*10)
			for i := 0; i < 200; i++ {
				lock.Lock(tk)
				if i&7 == 0 {
					runtime.Gosched()
				}
				lock.Unlock(tk)
			}
		}(w)
	}
	wg.Wait()
	if att.Faults() != 0 {
		t.Fatalf("policy faulted: %v", att.Err())
	}
}

func TestPublicDSLWorkflow(t *testing.T) {
	unit, err := concord.CompileDSL(`
		map hits percpu_array(value = 8, entries = 1, cpus = 80);

		policy cmp_node numa {
			return ctx.curr_socket == ctx.shuffler_socket;
		}
		policy lock_acquired count {
			hits[0] += 1;
			return 0;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	topo := concord.PaperTopology()
	fw := concord.New(topo)
	lock := concord.NewShflLock("dsl_lock")
	if err := fw.RegisterLock(lock); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.LoadPolicy("dsl", unit.Programs...); err != nil {
		t.Fatal(err)
	}
	att, err := fw.Attach("dsl_lock", "dsl")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	tk := concord.NewTask(topo)
	for i := 0; i < 7; i++ {
		lock.Lock(tk)
		lock.Unlock(tk)
	}
	pm := unit.Maps["hits"].(interface{ Sum(int) uint64 })
	if got := pm.Sum(0); got != 7 {
		t.Errorf("DSL counter = %d, want 7", got)
	}
}

func TestPublicProfiling(t *testing.T) {
	topo := concord.PaperTopology()
	fw := concord.New(topo)
	lock := concord.NewShflLock("prof_lock")
	if err := fw.RegisterLock(lock); err != nil {
		t.Fatal(err)
	}
	prof := concord.NewProfiler()
	if err := fw.StartProfiling("prof_lock", prof); err != nil {
		t.Fatal(err)
	}
	tk := concord.NewTask(topo)
	for i := 0; i < 9; i++ {
		lock.Lock(tk)
		lock.Unlock(tk)
	}
	var sb strings.Builder
	if err := prof.Report(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "prof_lock") {
		t.Errorf("report missing lock:\n%s", sb.String())
	}
}

func TestPublicLockSwitching(t *testing.T) {
	topo := concord.PaperTopology()
	sw := concord.NewSwitchableRWLock("sw", concord.NewRWSem("neutral"))
	tk := concord.NewTask(topo)
	sw.RLock(tk)
	sw.RUnlock(tk)
	sw.Switch(concord.NewBRAVO("biased", concord.NewRWSem("under"))).Wait()
	sw.RLock(tk)
	sw.RUnlock(tk)
	if sw.Switches() != 1 {
		t.Errorf("Switches = %d", sw.Switches())
	}
}

func TestPublicComposition(t *testing.T) {
	topo := concord.PaperTopology()
	fw := concord.New(topo)
	if _, err := fw.LoadNative("numa", concord.NUMAHooks()); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.LoadNative("park", concord.SpinThenParkHooks(1000, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Compose("combo", "numa", "park"); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.LoadNative("amp", concord.AMPHooks()); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Compose("conflict", "numa", "amp"); err == nil {
		t.Error("conflicting composition accepted")
	}
}

func TestPublicProgramSerialization(t *testing.T) {
	unit, err := concord.CompileDSL(`policy cmp_node p { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := concord.MarshalProgram(unit.Programs[0])
	if err != nil {
		t.Fatal(err)
	}
	back, err := concord.UnmarshalProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := concord.Verify(back); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTopologies(t *testing.T) {
	if concord.PaperTopology().NumCPUs() != 80 {
		t.Error("paper topology wrong")
	}
	bl := concord.BigLittleTopology(4, 4)
	tkFast := concord.NewTaskOnCPU(bl, 0)
	tkSlow := concord.NewTaskOnCPU(bl, 4)
	if tkFast.Speed() <= tkSlow.Speed() {
		t.Error("AMP speeds not asymmetric")
	}
}
