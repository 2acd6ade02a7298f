package concord_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden")

// apiGoldenPath holds the module's public surface: `go doc -all concord`
// followed by the -h output of each command. A change to the surface
// shows up as a diff of this file, which `go test -run TestAPIGolden
// -update .` rewrites.
const apiGoldenPath = "testdata/api.golden"

// apiCommands are the binaries whose -h output is part of the surface.
var apiCommands = []string{"concordctl", "concordvet"}

func TestAPIGolden(t *testing.T) {
	var got bytes.Buffer
	section := func(title string, out []byte) {
		got.WriteString("$ " + title + "\n")
		got.Write(out)
		if len(out) > 0 && out[len(out)-1] != '\n' {
			got.WriteByte('\n')
		}
		got.WriteByte('\n')
	}

	doc, err := exec.Command("go", "doc", "-all", "concord").Output()
	if err != nil {
		t.Fatalf("go doc: %v", err)
	}
	section("go doc -all concord", doc)

	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator))
	for _, c := range apiCommands {
		build.Args = append(build.Args, "./cmd/"+c)
	}
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, c := range apiCommands {
		cmd := exec.Command(filepath.Join(dir, c), "-h")
		cmd.Args[0] = c // flag's default usage line prints argv[0]
		// -h exits non-zero in some commands; the text is what matters.
		out, _ := cmd.CombinedOutput()
		section(c+" -h", out)
	}

	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(apiGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAPIGolden -update . to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("public surface differs from %s; review the change and rerun with -update:\n%s",
			apiGoldenPath, lineDiff(string(want), got.String()))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+), in
// order: enough to see which names appeared or vanished.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range bytes.Split([]byte(s), []byte("\n")) {
			m[string(l)]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out bytes.Buffer
	emit := func(s string, other map[string]int, mark string) {
		seen := map[string]int{}
		for _, l := range bytes.Split([]byte(s), []byte("\n")) {
			seen[string(l)]++
			if seen[string(l)] > other[string(l)] {
				out.WriteString(mark + string(l) + "\n")
			}
		}
	}
	emit(want, g, "-")
	emit(got, w, "+")
	return out.String()
}
