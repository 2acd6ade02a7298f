// profiling demonstrates §3.2: unlike lockstat, which profiles every
// lock in the kernel at once, Concord attaches a profiler to exactly the
// lock instances of interest — here one hot lock out of three — and can
// additionally run custom cBPF profiling programs at the four
// lock_acquire/contended/acquired/release hooks.
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"

	"concord"
)

func hammer(lock concord.Lock, topo *concord.Topology, workers, iters int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := concord.NewTask(topo)
			for i := 0; i < iters; i++ {
				lock.Lock(t)
				if i%16 == 0 {
					runtime.Gosched() // make some contention visible
				}
				lock.Unlock(t)
			}
		}()
	}
	wg.Wait()
}

func main() {
	topo := concord.PaperTopology()
	fw := concord.New(topo)

	hot := concord.NewShflLock("rename_lock")
	warm := concord.NewShflLock("inode_lock")
	cold := concord.NewShflLock("stat_lock")
	for _, l := range []concord.Lock{hot, warm, cold} {
		if err := fw.RegisterLock(l); err != nil {
			log.Fatal(err)
		}
	}

	// Selectively profile ONE lock instance.
	prof := concord.NewProfiler()
	if err := fw.StartProfiling("rename_lock", prof); err != nil {
		log.Fatal(err)
	}

	// Additionally: a custom cBPF profiling program on the same lock,
	// counting contended acquisitions per CPU in a per-CPU map.
	perCPU := concord.NewPerCPUArrayMap("contended", 8, 1, topo.NumCPUs())
	asm := `
		stw   [rfp-4], 0
		ldmap r1, contended
		mov   r2, rfp
		add   r2, -4
		mov   r3, 1
		call  map_add
		mov   r0, 0
		exit
	`
	counted, err := concord.Assemble("count-contended", concord.KindLockContended,
		asm, map[string]concord.Map{"contended": perCPU})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fw.LoadPolicy("count-contended", counted); err != nil {
		log.Fatal(err)
	}
	att, err := fw.Attach("rename_lock", "count-contended")
	if err != nil {
		log.Fatal(err)
	}
	att.Wait()

	// Traffic: the hot lock gets 8-way contention, the others light use.
	hammer(hot, topo, 8, 4000)
	hammer(warm, topo, 2, 500)
	hammer(cold, topo, 1, 100)

	fmt.Println("profiler report (only rename_lock was attached):")
	if err := prof.Report(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncBPF per-CPU contended counter (sum over CPUs): %d\n", perCPU.Sum(0))
	if _, ok := prof.SnapshotFor(warm.Name()); !ok {
		fmt.Println("inode_lock/stat_lock: no stats — not profiled, zero overhead")
	}
}
