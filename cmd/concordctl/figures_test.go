package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFiguresCSVAndTable(t *testing.T) {
	// Small sweep to keep runtime down.
	var out strings.Builder
	if err := cmdFigures([]string{"-experiment", "f2b", "-threads", "1,20", "-format", "csv"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"experiment,series,threads,value",
		"f2b,Stock,1,", "f2b,ShflLock,20,", "f2b,Concord-ShflLock,20,",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := cmdFigures([]string{"-experiment", "f2c", "-threads", "1,10", "-format", "table"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "== f2c ==") {
		t.Errorf("table missing header:\n%s", out.String())
	}

	// Output file.
	path := filepath.Join(t.TempDir(), "out.csv")
	out.Reset()
	if err := cmdFigures([]string{"-experiment", "a3", "-format", "csv", "-out", path}, &out); err != nil {
		t.Fatalf("run with -out: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("-out also wrote to stdout:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("a3,numa,80,")) {
		t.Errorf("file output:\n%s", data)
	}
}

func TestFiguresRejectsBadArgs(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-experiment", "nonsense"},
		{"-threads", "0,banana"},
		{"-experiment", "a3", "-format", "banana"},
		{"-experiment", "a3", "extra"},
		{"-experiment", "a3", "-out", filepath.Join(t.TempDir(), "missing", "out.csv")},
	} {
		if err := cmdFigures(args, &out); err == nil {
			t.Errorf("figures %q accepted", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs wrote output:\n%s", out.String())
	}
}
