package concord_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared matches the test, fuzz, example and benchmark functions a
// _test.go file declares.
var declared = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example|Benchmark)\w*)\(`)

// TestCIRunPatternsMatch holds CI's test selections to the tests that
// exist. `go test -run 'A|B'` passes silently when A names nothing, so a
// renamed or deleted test would drop out of CI unnoticed. For every
// `go test` command in the workflow, each |-alternative of -run must
// match a Test, Fuzz or Example function, and each of -bench a Benchmark
// function, declared in the command's package directories (build-tagged
// files included). '^$', the select-nothing pattern, is skipped.
func TestCIRunPatternsMatch(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	commands := 0
	for n := 0; n < len(lines); n++ {
		line, at := lines[n], n+1
		for strings.HasSuffix(line, "\\") && n+1 < len(lines) { // a continued line
			n++
			line = strings.TrimSuffix(line, "\\") + " " + lines[n]
		}
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		commands++
		// No test name or package path holds a space or a quote.
		args := strings.Fields(strings.NewReplacer("'", "", `"`, "").Replace(line[i:]))
		var dirs []string
		selects := map[string]string{} // -run or -bench -> its pattern
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case (a == "-run" || a == "-bench") && j+1 < len(args):
				selects[a] = args[j+1]
				j++
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-bench="):
				flag, pat, _ := strings.Cut(a, "=")
				selects[flag] = pat
			case a == "." || strings.HasPrefix(a, "./"):
				dirs = append(dirs, packageDirs(t, a)...)
			}
		}
		names := map[string][]string{} // by the flag that selects them
		for _, dir := range dirs {
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range declared.FindAllStringSubmatch(string(src), -1) {
					flag := "-run"
					if strings.HasPrefix(m[1], "Benchmark") {
						flag = "-bench"
					}
					names[flag] = append(names[flag], m[1])
				}
			}
		}
		for flag, pat := range selects {
			for _, alt := range strings.Split(pat, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: %s alternative %q: %v", workflow, at, flag, alt, err)
					continue
				}
				found := false
				for _, name := range names[flag] {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("%s:%d: %s alternative %q matches no function in %v", workflow, at, flag, alt, dirs)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatalf("%s: found no go test command", workflow)
	}
}

// packageDirs resolves one package argument of go test to directories:
// "./x/..." is x and every directory below it that belongs to this
// module (not testdata, not a nested module).
func packageDirs(t *testing.T, arg string) []string {
	root, recursive := strings.CutSuffix(arg, "...")
	root = filepath.Clean(root)
	if !recursive {
		return []string{root}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}
