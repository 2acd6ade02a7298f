// rcu-config demonstrates the §6 extension direction — C3 beyond locks —
// using this repository's userspace RCU and seqlock: a hot configuration
// record is read lock-free by many tasks while a writer republishes it,
// reclaiming old versions only after a grace period; the same record's
// statistics pair is protected by a seqlock whose *write side* is a
// Concord-instrumented ShflLock, so policies and profilers apply to it
// with no seqlock-specific support.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"concord"
)

type config struct {
	version  int64
	replicas int64
}

func main() {
	topo := concord.PaperTopology()

	// --- RCU-protected configuration ---
	rcu := concord.NewRCU()
	var current atomic.Pointer[config]
	current.Store(&config{version: 1, replicas: 3})

	var reads, staleFrees atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tok := rcu.ReadLock()
				cfg := current.Load()
				if cfg.version <= 0 {
					log.Fatal("reader observed a reclaimed config")
				}
				reads.Add(1)
				rcu.ReadUnlock(tok)
				runtime.Gosched()
			}
		}()
	}

	for v := int64(2); v <= 10; v++ {
		old := current.Swap(&config{version: v, replicas: v % 5})
		// call_rcu-style deferred reclamation.
		rcu.Call(func() {
			old.version = -1 // poison: any later read would be caught
			staleFrees.Add(1)
		})
		rcu.Synchronize()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	fmt.Printf("RCU: %d lock-free reads, %d configs reclaimed after %d grace periods\n",
		reads.Load(), staleFrees.Load(), rcu.GracePeriods())

	// --- Seqlock with a Concord-instrumented write side ---
	writeLock := concord.NewShflLock("stats_seq")
	fw := concord.New(topo)
	if err := fw.RegisterLock(writeLock); err != nil {
		log.Fatal(err)
	}
	prof := concord.NewProfiler()
	if err := fw.StartProfiling("stats_seq", prof); err != nil {
		log.Fatal(err)
	}
	seq := concord.NewSeqLock(writeLock)

	var a, b int64 // invariant: a == b outside write sections
	writer := concord.NewTask(topo)
	var torn int
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for i := 0; i < 5000; i++ {
			var ga, gb int64
			seq.Read(func() {
				ga = atomic.LoadInt64(&a)
				gb = atomic.LoadInt64(&b)
			})
			if ga != gb {
				torn++
			}
		}
	}()
	for i := int64(1); i <= 2000; i++ {
		seq.WriteLock(writer)
		atomic.StoreInt64(&a, i)
		if i%64 == 0 {
			runtime.Gosched()
		}
		atomic.StoreInt64(&b, i)
		seq.WriteUnlock(writer)
	}
	readerWG.Wait()

	fmt.Printf("seqlock: %d torn reads (must be 0), %d reader retries\n", torn, seq.Retries())
	if s, ok := prof.SnapshotFor(writeLock.Name()); ok {
		fmt.Printf("write side profiled through Concord: %d acquisitions\n", s.Acqs)
	}
}
