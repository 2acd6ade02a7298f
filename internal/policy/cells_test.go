package policy

import (
	"testing"
	"unsafe"
)

// TestExecCellsPerFiringPair: counting costs a program that never ran one
// word, a cell is a cache line, and a program has one cell per owner that
// ran it — none before, and no second one for an owner its cache forgot.
func TestExecCellsPerFiringPair(t *testing.T) {
	// 128 bytes before the cells: the counters inline, no cells.
	if got, want := unsafe.Sizeof(Program{}), uintptr(128+8); got > want {
		t.Errorf("Program is %d bytes, want at most %d", got, want)
	}
	if got := unsafe.Sizeof(execCell{}); got != 64 {
		t.Errorf("execCell is %d bytes, want one 64-byte line", got)
	}
	cells := func(p *Program) (n int) {
		if pc := p.stats.Load(); pc != nil {
			for c := pc.cells.Load(); c != nil; c = c.next {
				n++
			}
		}
		return n
	}
	progs := make([]*Program, cellWays+2)
	for i := range progs {
		progs[i] = NewBuilder("p", KindCmpNode).ReturnImm(0).MustProgram()
	}
	a, b := NewExecCells(1), NewExecCells(2)
	// Owner a runs every program but the last, more than its cache holds,
	// three times over; b runs the first.
	for range 3 {
		for _, p := range progs[:len(progs)-1] {
			a.For(p).Runs.Add(1)
		}
	}
	b.For(progs[0]).Runs.Add(1)
	for i, p := range progs {
		want := 1
		switch i {
		case 0:
			want = 2
		case len(progs) - 1:
			want = 0
		}
		if n := cells(p); n != want {
			t.Errorf("program %d has %d cells, want %d", i, n, want)
		}
	}
	if progs[len(progs)-1].stats.Load() != nil {
		t.Error("a program that never ran has counters")
	}
	if got := progs[0].Stats().Runs.Load(); got != 4 {
		t.Errorf("Stats reads %d runs of program 0, want 4", got)
	}
	if got := progs[1].Stats().Runs.Load(); got != 3 {
		t.Errorf("Stats reads %d runs of program 1, want 3", got)
	}
	var none *ExecCells
	none.For(progs[1]).Runs.Add(1)
	if got := progs[1].Stats().Runs.Load(); got != 4 || cells(progs[1]) != 1 {
		t.Errorf("a run with no owner: %d runs in %d cells, want 4 in 1", got, cells(progs[1]))
	}
}
