package main

import (
	"os"
	"path/filepath"
	"strings"

	"concord/internal/policydsl"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const numaAsm = `
	mov   r6, r1
	ldxdw r2, [r6+curr_socket]
	ldxdw r3, [r6+shuffler_socket]
	jeq   r2, r3, group
	mov   r0, 0
	exit
group:
	mov   r0, 1
	exit
`

func TestAsmVerifyDisasmPipeline(t *testing.T) {
	src := write(t, "numa.s", numaAsm)
	out := filepath.Join(t.TempDir(), "numa.json")
	if err := cmdAsm([]string{"-kind", "cmp_node", "-name", "numa", "-o", out, src}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDisasm([]string{out}); err != nil {
		t.Fatal(err)
	}
}

func TestAsmWithMapSpec(t *testing.T) {
	src := write(t, "count.s", `
		stw   [rfp-4], 0
		ldmap r1, hits
		mov   r2, rfp
		add   r2, -4
		mov   r3, 1
		call  map_add
		mov   r0, 0
		exit
	`)
	out := filepath.Join(t.TempDir(), "count.json")
	err := cmdAsm([]string{
		"-kind", "lock_acquired", "-name", "count",
		"-map", "hits:array:4:8:16", "-o", out, src,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{out}); err != nil {
		t.Fatal(err)
	}
}

func TestAsmRejectsBadProgram(t *testing.T) {
	src := write(t, "bad.s", "mov r0, 1\n") // falls off the end
	err := cmdAsm([]string{"-kind", "cmp_node", src})
	if err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileDSLPipeline(t *testing.T) {
	src := write(t, "p.pol", `
		map contended percpu_array(value = 8, entries = 1, cpus = 8);
		policy cmp_node numa {
			return ctx.curr_socket == ctx.shuffler_socket;
		}
		policy lock_contended count {
			contended[0] += 1;
			return 0;
		}
	`)
	dir := t.TempDir()
	if err := cmdCompile([]string{"-o", dir, src}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("compile -o wrote %d files, want numa.json and count.json", len(entries))
	}
	for _, name := range []string{"numa.json", "count.json"} {
		path := filepath.Join(dir, name)
		if err := cmdVerify([]string{path}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBadFlagReturnsError: a flag a command does not define is an error
// the command returns, not an exit from inside it.
func TestBadFlagReturnsError(t *testing.T) {
	src := write(t, "p.pol", "policy cmp_node numa { return ctx.curr_socket == ctx.shuffler_socket; }")
	for name, cmd := range map[string]func([]string) error{
		"compile": cmdCompile, "asm": cmdAsm, "demo": cmdDemo,
	} {
		if err := cmd([]string{"-no-such-flag", src}); err == nil || !strings.Contains(err.Error(), "no-such-flag") {
			t.Errorf("%s -no-such-flag: err = %v", name, err)
		}
	}
}

func TestCompileRejectsBadDSL(t *testing.T) {
	src := write(t, "bad.pol", "policy nonsense p { return 0; }")
	if err := cmdCompile([]string{src}); err == nil {
		t.Fatal("bad DSL accepted")
	}
}

func TestParseMapSpec(t *testing.T) {
	m, err := parseMapSpec("c:hash:8:16:64")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "c" || m.KeySize() != 8 || m.ValueSize() != 16 || m.MaxEntries() != 64 {
		t.Errorf("spec: %s %d/%d/%d", m.Name(), m.KeySize(), m.ValueSize(), m.MaxEntries())
	}
	if _, err := parseMapSpec("oops"); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := parseMapSpec("c:ring:4:8:1"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestKindsListing(t *testing.T) {
	if err := cmdKinds(); err != nil {
		t.Fatal(err)
	}
}

func TestDemoRuns(t *testing.T) {
	for _, p := range []string{"numa", "inheritance", "scl", "fifo"} {
		if err := cmdDemo([]string{"-policy", p, "-workers", "2", "-ops", "100"}); err != nil {
			t.Errorf("demo %s: %v", p, err)
		}
	}
	if err := cmdDemo([]string{"-policy", "nonsense"}); err == nil {
		t.Error("unknown demo policy accepted")
	}
}

// TestShippedPolicyLibrary compiles every .pol file shipped in
// policies/, guaranteeing the documentation assets stay valid.
func TestShippedPolicyLibrary(t *testing.T) {
	dir := "../../policies"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("policies dir: %v", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pol") {
			continue
		}
		n++
		t.Run(e.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := policydsl.CompileAndVerify(string(src)); err != nil {
				t.Errorf("%s does not compile: %v", e.Name(), err)
			}
		})
	}
	if n < 5 {
		t.Errorf("only %d policies found; library incomplete?", n)
	}
}
