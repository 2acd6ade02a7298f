package concord_test

import (
	"fmt"

	"concord"
)

// Example_quickstart shows the complete C3 workflow: express a policy,
// verify it, livepatch it onto a live lock.
func Example_quickstart() {
	topo := concord.PaperTopology()
	fw := concord.New(topo)
	lock := concord.NewShflLock("example_lock")
	if err := fw.RegisterLock(lock); err != nil {
		panic(err)
	}

	unit, err := concord.CompileDSL(`
		policy cmp_node numa {
			return ctx.curr_socket == ctx.shuffler_socket;
		}
	`)
	if err != nil {
		panic(err)
	}
	if _, err := fw.LoadPolicy("numa", unit.Programs...); err != nil {
		panic(err)
	}
	att, err := fw.Attach("example_lock", "numa")
	if err != nil {
		panic(err)
	}
	att.Wait()

	t := concord.NewTask(topo)
	lock.Lock(t)
	lock.Unlock(t)
	fmt.Println("policy attached, faults:", att.Faults())
	// Output: policy attached, faults: 0
}

// Example_profiling shows §3.2's selective per-instance profiling.
func Example_profiling() {
	topo := concord.PaperTopology()
	fw := concord.New(topo)
	hot := concord.NewShflLock("hot_lock")
	if err := fw.RegisterLock(hot); err != nil {
		panic(err)
	}

	prof := concord.NewProfiler()
	if err := fw.StartProfiling("hot_lock", prof); err != nil {
		panic(err)
	}

	t := concord.NewTask(topo)
	for i := 0; i < 3; i++ {
		hot.Lock(t)
		hot.Unlock(t)
	}
	stats, _ := prof.SnapshotFor("hot_lock")
	fmt.Println("acquisitions:", stats.Acqs)
	// Output: acquisitions: 3
}

// Example_lockSwitching shows §3.1.1's switch between lock
// implementations at runtime with livepatch draining.
func Example_lockSwitching() {
	topo := concord.PaperTopology()
	sw := concord.NewSwitchableRWLock("mmap_sem", concord.NewRWSem("neutral"))

	t := concord.NewTask(topo)
	sw.RLock(t) // read-mostly phase begins on the neutral lock
	sw.RUnlock(t)

	// Switch to BRAVO's reader-biased design; Wait is the consistency
	// point after which the old lock has fully drained.
	sw.Switch(concord.NewBRAVO("biased", concord.NewRWSem("under"))).Wait()

	sw.RLock(t)
	sw.RUnlock(t)
	fmt.Println("switches:", sw.Switches())
	// Output: switches: 1
}

// Example_assembler shows the low-level route: cBPF assembly, explicit
// verification, direct attachment.
func Example_assembler() {
	prog, err := concord.Assemble("bounded", concord.KindSkipShuffle, `
		mov   r6, r1
		ldxdw r2, [r6+shuffle_round]
		jgt   r2, 8, skip
		mov   r0, 0
		exit
	skip:
		mov   r0, 1
		exit
	`, nil)
	if err != nil {
		panic(err)
	}
	stats, err := concord.Verify(prog)
	if err != nil {
		panic(err)
	}
	fmt.Println("verified instructions:", stats.Insns)
	// Output: verified instructions: 7
}
