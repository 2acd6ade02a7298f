package locks_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/core"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/task"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// TestInheritancePolicySeesEnqueueMask: the held mask is a plain word its
// owner writes, and a shuffler reads it on a waiter it reached through the
// queue. inheritance.pol, loaded through the Framework and run on the tree
// tier, shuffles a nested rename chain; every cmp_node fire's
// curr_held_mask must be the mask that waiter had when it enqueued (the
// locks it holds further up the chain), which its lock_contended hook
// records on the waiter's own goroutine before the tail swap. Under -race
// the detector also checks that the queue orders each of those reads
// after the waiter's last write and before its next one; a fire looks the
// recorded mask up only after the policy and the check have read the
// waiter's, so its own lookup orders nothing before those reads.
func TestInheritancePolicySeesEnqueueMask(t *testing.T) {
	const chainLen = 4
	locks.ResetLockIDs()
	topo := topology.New(4, 4)
	f := core.New(topo)
	src, err := os.ReadFile("../../policies/inheritance.pol")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := policydsl.CompileAndVerify(string(src))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := f.LoadPolicy("inheritance", unit.Programs...)
	if err != nil {
		t.Fatal(err)
	}
	if tier := pol.Tier(policy.KindCmpNode); tier != "jit" {
		t.Fatalf("cmp_node admitted on tier %q, want the decision tree", tier)
	}

	var enqueued sync.Map // *task.T → its held mask as it enqueued
	var fires, heldFires, wrong atomic.Int64
	chain := make([]locks.Lock, chainLen)
	for i := range chain {
		l := locks.NewShflLock(fmt.Sprintf("chain%d", i), locks.WithMaxRounds(4))
		if l.ID() > task.MaxTrackedLockID {
			t.Fatalf("lock ID %d is past the held mask", l.ID())
		}
		if err := f.RegisterLock(l); err != nil {
			t.Fatal(err)
		}
		a, err := f.Attach(l.Name(), "inheritance")
		if err != nil {
			t.Fatal(err)
		}
		a.Wait()
		h := *l.HookSlot().Peek()
		cmp, contended := h.CmpNode, h.OnContended
		h.OnContended = func(ev *locks.Event) {
			enqueued.Store(ev.Task, ev.Task.HeldMask())
			if contended != nil {
				contended(ev)
			}
		}
		h.CmpNode = func(info *locks.ShuffleInfo) bool {
			move := cmp(info)
			got := info.Curr.Task.HeldMask()
			want, ok := enqueued.Load(info.Curr.Task)
			fires.Add(1)
			if got != 0 {
				heldFires.Add(1)
			}
			if (!ok || got != want.(uint64)) && wrong.Add(1) == 1 {
				t.Errorf("%s: cmp_node read curr_held_mask %#x, the waiter enqueued holding %#x (recorded %v)",
					l.Name(), got, want, ok)
			}
			return move
		}
		l.HookSlot().Replace("record", &h).Wait()
		chain[i] = l
	}

	// Renamers queue on lock i+1 holding locks 0..i, so some fires read a
	// non-zero mask; run until a few have, or give up.
	for deadline := time.Now().Add(20 * time.Second); heldFires.Load() < 8 && wrong.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d cmp_node fires, %d on a waiter holding a lock: the chain never queued a renamer",
				fires.Load(), heldFires.Load())
		}
		res := workloads.RunRenameChain(chain, topo, workloads.RenameConfig{
			ChainLen: chainLen, Renamers: 2, PointWorkers: 6,
			Duration: 50 * time.Millisecond,
		})
		if res.RenameOps == 0 || res.PointOps == 0 {
			t.Fatalf("a class starved: %+v", res)
		}
	}
	if jit := pol.Programs[policy.KindCmpNode].Stats().JITRuns.Load(); jit == 0 {
		t.Errorf("no cmp_node run took the tree tier")
	}
	for _, l := range chain {
		if msg := l.(*locks.ShflLock).SafetyError(); msg != "" {
			t.Errorf("safety tripped: %s", msg)
		}
	}
	t.Logf("%d cmp_node fires, %d on a waiter holding a lock", fires.Load(), heldFires.Load())
}
