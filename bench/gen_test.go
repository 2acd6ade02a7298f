package main

import (
	"reflect"
	"sort"
	"testing"

	"concord/internal/topology"
)

func htOps(seed uint64, task, tasks, n int) []htOp {
	st := newHTStream(seed, task, tasks)
	out := make([]htOp, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	topo := topology.Paper()
	if a, b := htOps(7, 3, 8, 4096), htOps(7, 3, 8, 4096); !reflect.DeepEqual(a, b) {
		t.Error("same seed, same task: op streams differ")
	}
	if a, b := htOps(7, 3, 8, 4096), htOps(8, 3, 8, 4096); reflect.DeepEqual(a, b) {
		t.Error("different seeds: op streams are identical")
	}
	if a, b := htOps(7, 3, 8, 4096), htOps(7, 4, 8, 4096); reflect.DeepEqual(a, b) {
		t.Error("different tasks of one seed: op streams are identical")
	}
	if a, b := policyOrder(7, 10), policyOrder(7, 10); !reflect.DeepEqual(a, b) {
		t.Error("same seed: policy orders differ")
	}
	if a, b := placement(7, topo, 8, 2), placement(7, topo, 8, 2); !reflect.DeepEqual(a, b) {
		t.Error("same seed: placements differ")
	}
	// One pair of seeds could collide by chance; not all of these.
	orders, places := map[string]bool{}, map[string]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		orders[fmtInts(policyOrder(seed, 10))] = true
		places[fmtInts(placement(seed, topo, 8, 2))] = true
	}
	if len(orders) < 7 || len(places) < 7 {
		t.Errorf("8 seeds gave %d policy orders and %d placements", len(orders), len(places))
	}
}

func fmtInts(v []int) string {
	b := make([]byte, 0, 3*len(v))
	for _, x := range v {
		b = append(b, byte('0'+x/10), byte('0'+x%10), ' ')
	}
	return string(b)
}

func TestHashtableStreamShape(t *testing.T) {
	const tasks, n = 8, 100000
	var kinds [3]int
	for task := 0; task < tasks; task++ {
		lo, hi := uint64(task*htKeys/tasks), uint64((task+1)*htKeys/tasks)
		for _, op := range htOps(1, task, tasks, n/tasks) {
			if op.key < lo || op.key >= hi {
				t.Fatalf("task %d issued key %d outside its range [%d,%d)", task, op.key, lo, hi)
			}
			kinds[op.kind]++
		}
	}
	for kind, want := range [3]float64{0.8, 0.1, 0.1} {
		if got := float64(kinds[kind]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("op kind %d is %.3f of the stream, want %.1f", kind, got, want)
		}
	}
}

func TestPlacement(t *testing.T) {
	topo := topology.Paper()
	cpus := placement(3, topo, queueTasks, queuePerSocket)
	if len(cpus) != queueTasks {
		t.Fatalf("got %d cpus", len(cpus))
	}
	perSocket, seen := map[int]int{}, map[int]bool{}
	for _, c := range cpus {
		if seen[c] {
			t.Errorf("cpu %d used twice", c)
		}
		seen[c] = true
		perSocket[topo.SocketOf(c)]++
	}
	if len(perSocket) != queueTasks/queuePerSocket {
		t.Errorf("tasks sit on %d sockets, want %d", len(perSocket), queueTasks/queuePerSocket)
	}
	for s, n := range perSocket {
		if n != queuePerSocket {
			t.Errorf("socket %d has %d tasks, want %d", s, n, queuePerSocket)
		}
	}
}

func TestPolicyOrderIsPermutation(t *testing.T) {
	got := policyOrder(5, len(shippedPolicies))
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("not a permutation: %v", got)
		}
	}
}
