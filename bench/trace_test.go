package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// op [0,100] ── locks.Lock [10,40] ── core.hook.cmp_node [20,30]
	//            ├─ cs [40,70]
	//            └─ locks.Unlock [70,95] ── core.hook.lock_release [80,85]
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "locks.Lock", Start: 10, End: 40},
		{ID: 3, Parent: 2, Op: 1, Name: "core.hook.cmp_node", Start: 20, End: 30},
		{ID: 4, Parent: 1, Op: 1, Name: "cs", Start: 40, End: 70},
		{ID: 5, Parent: 1, Op: 1, Name: "locks.Unlock", Start: 70, End: 95},
		{ID: 6, Parent: 5, Op: 1, Name: "core.hook.lock_release", Start: 80, End: 85},
		{ID: 7, Op: 2, Name: "op", Start: 200, End: 0}, // still open: skipped
	}
	want := map[string]int64{
		"op": 100 - 30 - 30 - 25, "locks.Lock": 30 - 10, "core.hook.cmp_node": 10,
		"cs": 30, "locks.Unlock": 25 - 5, "core.hook.lock_release": 5,
	}
	got := selfTimes(spans)
	var sum int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
		sum += got[name]
	}
	if len(got) != len(want) {
		t.Errorf("self times %v", got)
	}
	if root := rootTime(spans, "op"); sum != root || root != 100 {
		t.Errorf("self times sum to %d, closed op spans to %d", sum, root)
	}
}

func TestTaskTraceNesting(t *testing.T) {
	tr := newTracer()
	tt := tr.add(nil)
	tt.begin("ignored") // outside an op: nothing is recorded
	if len(tt.spans) != 0 {
		t.Fatal("span recorded outside an op")
	}
	if tt.beginOp("op", false) {
		t.Fatal("op recorded while tracing is off")
	}
	tr.on.Store(true)
	if !tt.beginOp("op", true) {
		t.Fatal("op not recorded")
	}
	tt.begin("locks.Lock")
	tt.begin("core.hook.cmp_node")
	tt.end()
	tt.end()
	tt.begin("cs")
	tt.endOp() // closes cs and op
	if tt.beginOp("op", true) {
		t.Error("second op inside the rate-limit gap was recorded")
	}
	if !tt.beginOp("lifecycle", false) {
		t.Error("unlimited op was not recorded")
	}
	tt.endOp()

	byName := map[string]span{}
	for _, s := range tt.spans {
		if s.End < s.Start || s.End == 0 {
			t.Errorf("span %s not closed: %+v", s.Name, s)
		}
		byName[s.Name] = s
	}
	op, lock, hook, cs := byName["op"], byName["locks.Lock"], byName["core.hook.cmp_node"], byName["cs"]
	if lock.Parent != op.ID || cs.Parent != op.ID || hook.Parent != lock.ID || op.Parent != 0 {
		t.Errorf("wrong parents: %+v", tt.spans)
	}
	if lock.Op != op.Op || hook.Op != op.Op || byName["lifecycle"].Op == op.Op {
		t.Errorf("spans of one op must share its id, and only they: %+v", tt.spans)
	}

	path, err := tr.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(back) != len(tt.spans) {
		t.Errorf("wrote %d spans, read %d", len(tt.spans), len(back))
	}
}
