package main

import "concord/internal/topology"

// rng is the xorshift64 generator every input stream is drawn from. One
// run derives all of its streams from the -seed argument, so the program
// under test sees nothing but generated inputs.
type rng uint64

// newRNG returns the generator for one named stream of a run. The
// splitmix64 finalizer spreads (seed, stream) over the state space and
// keeps the xorshift state away from its only fixed point, zero.
func newRNG(seed, stream uint64) rng {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return rng(z)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// Stream identifiers. Task i of a workload uses streamOps+i for its op
// stream and streamSample+i for its latency-sampling draws, so sampling
// never perturbs the ops a task issues.
const (
	streamOps       = 0x1000
	streamSample    = 0x2000
	streamPlacement = 0x3000
	streamPolicies  = 0x4000
)

// Hashtable op kinds: the 80/10/10 mix of the paper's Figure 2(c) run.
const (
	htGet = iota
	htPut
	htDelete
)

type htOp struct {
	kind uint8
	key  uint64 // absolute key, inside the issuing task's own range
	val  uint64
}

// htStream generates one task's hashtable ops. Tasks own disjoint key
// ranges of the htKeys-key space, which is what lets each task check every
// result against a private model with no cross-task synchronisation.
type htStream struct {
	_        cacheLine // r and sequence change on every op of one task
	r        rng
	base, n  uint64
	sequence uint64
	_        cacheLine
}

const htKeys = 4096

func newHTStream(seed uint64, task, tasks int) *htStream {
	per := uint64(htKeys / tasks)
	return &htStream{r: newRNG(seed, streamOps+uint64(task)), base: uint64(task) * per, n: per}
}

func (s *htStream) next() htOp {
	x := s.r.next()
	s.sequence++
	op := htOp{key: s.base + (x>>8)%s.n, val: s.sequence}
	switch m := x % 10; {
	case m < 8:
		op.kind = htGet
	case m == 8:
		op.kind = htPut
	default:
		op.kind = htDelete
	}
	return op
}

// placement picks the virtual CPUs of a workload's tasks: perSocket tasks
// on each of tasks/perSocket distinct sockets, sockets and cores chosen
// from the seed. The result is in task order.
func placement(seed uint64, topo *topology.Topology, tasks, perSocket int) []int {
	r := newRNG(seed, streamPlacement)
	sockets := permutation(&r, topo.NumSockets())
	cpus := make([]int, 0, tasks)
	for s := 0; len(cpus) < tasks; s++ {
		cores := topo.CPUsOfSocket(sockets[s%len(sockets)])
		order := permutation(&r, len(cores))
		for i := 0; i < perSocket && len(cpus) < tasks; i++ {
			cpus = append(cpus, cores[order[i]])
		}
	}
	// Task order is shuffled too, so which goroutine starts on which
	// socket is not tied to its index.
	order := permutation(&r, len(cpus))
	out := make([]int, len(cpus))
	for i, j := range order {
		out[i] = cpus[j]
	}
	return out
}

// policyOrder is the seed-permuted order in which policy_churn cycles
// through the shipped policies.
func policyOrder(seed uint64, n int) []int {
	r := newRNG(seed, streamPolicies)
	return permutation(&r, n)
}

// permutation is a Fisher-Yates shuffle of 0..n-1.
func permutation(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
