package policy

import "sync/atomic"

// Owner-local execution counters. A decision-tree run adds up to five
// counters; were they the program's own, two CPUs firing one program would
// trade that cache line on every run, and the transfer, not the tree, would
// be most of the fire. So a run whose owner (the firing task) is known
// counts into the owner's cell of the program: one cache line per
// (program, owner) pair that has run it, made on the pair's first run,
// linked from the program and written only by its owner. The adds stay
// atomic because Stats reads every cell from wherever it is called, and
// sums them with the program's own counters then — the kernel keeps
// bpf_prog_stats per CPU and sums them on read in the same way. The
// interpreter, and a run with no owner, add to the program's own counters.

// execCounters is what a program has counted: its own counters and its
// owners' cells. It is made on the program's first run and kept behind one
// pointer, so that a program that never runs pays one word for counting,
// and an owner's cache names the program by it without keeping the
// program, and the maps it references, alive.
type execCounters struct {
	own   ExecStats
	cells atomic.Pointer[execCell]
}

// execCell is one owner's counters in one program: 48 bytes of counters,
// the owner and the link fill one 64-byte size class, so a cell is a cache
// line of its own.
type execCell struct {
	ExecStats
	owner int64
	next  *execCell // set before the cell is published, never after
}

// counters returns p's counters, making them on its first run.
func (p *Program) counters() *execCounters {
	if pc := p.stats.Load(); pc != nil {
		return pc
	}
	if pc := new(execCounters); p.stats.CompareAndSwap(nil, pc) {
		return pc
	}
	return p.stats.Load()
}

// cellWays is how many programs an ExecCells remembers: a task fires one
// or two programs per lock it takes (lock_acquired, lock_contended or
// lock_release, cmp_node), so a few ways keep every fire of a steady
// workload a hit.
const cellWays = 4

// ExecCells is one owner's cache of its cells: which cell it counts into
// in each of the last cellWays programs it ran. Owner-goroutine only, like
// the other per-task scratch a task carries; a hit makes no shared write
// and allocates nothing.
type ExecCells struct {
	owner  int64
	victim uint8
	ways   [cellWays]struct {
		pc   *execCounters
		cell *execCell
	}
}

// NewExecCells returns an empty cache for the owner with the given
// identity (a task ID), which names the owner's cell in every program.
func NewExecCells(owner int64) *ExecCells { return &ExecCells{owner: owner} }

// For returns the counters a run of p by c's owner adds to: the owner's
// cell of p, found in the cache, or else in p's list, or else made and
// linked into it. A nil c stands for a run with no owner, which adds to
// p's own counters.
func (c *ExecCells) For(p *Program) *ExecStats {
	if c == nil {
		return &p.counters().own
	}
	if pc := p.stats.Load(); pc != nil {
		for i := range c.ways {
			if w := &c.ways[i]; w.pc == pc {
				return &w.cell.ExecStats
			}
		}
	}
	return c.miss(p.counters())
}

func (c *ExecCells) miss(pc *execCounters) *ExecStats {
	cell := pc.cells.Load()
	for cell != nil && cell.owner != c.owner {
		cell = cell.next
	}
	if cell == nil {
		cell = &execCell{owner: c.owner}
		for {
			head := pc.cells.Load()
			cell.next = head
			if pc.cells.CompareAndSwap(head, cell) {
				break
			}
		}
	}
	w := &c.ways[c.victim%cellWays]
	c.victim++
	w.pc, w.cell = pc, cell
	return &cell.ExecStats
}
