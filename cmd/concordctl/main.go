// concordctl is the userspace control tool of the Concord framework
// (Figure 1's user side): compile, assemble and verify policies, store
// them in a policy repository directory (the "BPF file system"
// analogue), disassemble stored programs, run an in-process demo that
// attaches a policy to a live lock and profiles it, fuzz lock/hook
// schedules, and regenerate the paper's figures.
//
// Usage:
//
//	concordctl compile [-o dir] file.pol
//	concordctl asm    -kind cmp_node -name numa -o numa.json [-map spec] file.s
//	concordctl verify prog.json
//	concordctl analyze [-json] [-budget 2µs] [-admit] file.pol
//	concordctl disasm prog.json
//	concordctl demo   [-policy numa|inheritance|scl] [-workers N] [-ops N]
//	concordctl serve  [-addr host:port] [-policy P] [-duration 30s]
//	concordctl top    [-addr host:port | -policy P] [-n N] [-interval 1s] [-window 1s]
//	concordctl health [-addr host:port | -policy P] [-inject]
//	concordctl profile [-addr host:port | -policy P] [-pprof] [-o out.pb.gz] [-rate N]
//	concordctl flightrec [-dir D] list|show file.json
//	concordctl schedfuzz run [-target T] [-seed N] [-iters N] [-strategy S]
//	                         [-schedule-out F] [-flight-dir D] [-deadline D]
//	concordctl schedfuzz replay [-flight-dir D] [-deadline D] file.schedule.json
//	concordctl schedfuzz targets
//	concordctl figures [-experiment f2a|f2b|f2c|f2c-real|a3|all] [-threads 1,2,4,...]
//	                   [-format table|csv] [-out file] [-ops N]
//	concordctl kinds
//
// A schedfuzz run or replay that detects a failure exits 5 and writes a
// replayable schedule file (plus a flight bundle when -flight-dir is
// set); -deadline bounds each iteration, and a tripped deadline is such
// a failure. Other errors exit 1.
//
// Map specs have the form name:type:keysize:valuesize:maxentries, e.g.
// counters:array:4:8:16 or waits:hash:8:16:1024.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"concord"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compile":
		err = cmdCompile(os.Args[2:])
	case "asm":
		err = cmdAsm(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:], os.Stdout)
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:], os.Stdout)
	case "top":
		err = cmdTop(os.Args[2:], os.Stdout)
	case "health":
		err = cmdHealth(os.Args[2:], os.Stdout)
	case "profile":
		err = cmdProfile(os.Args[2:], os.Stdout)
	case "flightrec":
		err = cmdFlightrec(os.Args[2:], os.Stdout)
	case "schedfuzz":
		err = cmdSchedFuzz(os.Args[2:], os.Stdout, os.Stderr)
	case "figures":
		err = cmdFigures(os.Args[2:], os.Stdout)
	case "kinds":
		err = cmdKinds()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "concordctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the command's flag set has printed its usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "concordctl:", err)
		var se *statusError
		if errors.As(err, &se) {
			os.Exit(se.status)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `concordctl — Concord policy control tool

commands:
  compile [-o dir] file.pol
         compile + verify a C-style policy source (may contain several
         policies and map declarations); writes one JSON per policy
  asm    -kind K -name N [-o out.json] [-map spec]... file.s
         assemble + verify a policy program
  verify prog.json     re-verify a stored program, print proof stats
  analyze [-json] [-budget D] [-admit] file.pol|prog.json
         static analysis: worst-case cost bound, value ranges, map
         footprint, safety facts; -admit enforces the hook budget
  disasm prog.json     print a stored program as assembly
  demo   [-policy P] [-workers N] [-ops N]
         attach a policy to a live lock in-process and profile it
  serve  [-addr A] [-policy P] [-workers N] [-ops N] [-duration D]
         run a telemetry-instrumented workload and serve /metrics,
         /locks, /policies, /trace and /debug/pprof over HTTP
  top    [-addr A | -policy P] [-n N] [-interval D]
         print a lockstat-style table, most wait time first; -addr
         scrapes a running serve, otherwise drives load in-process
  health [-addr A | -policy P] [-inject]
         print per-lock breaker state, faults, retries and last trip;
         -inject demonstrates a transient fault healing in-process
  profile [-addr A | -policy P] [-pprof] [-o F] [-rate N] [-window D]
         export the sampled contention profile: windowed per-lock
         report by default, -pprof writes a "go tool pprof" protobuf;
         -addr fetches /debug/concord/contention from a running serve
  flightrec [-dir D] list|show <file>
         list flight-recorder bundles captured on supervisor trips, or
         dump one bundle's JSON
  schedfuzz run [-target T] [-seed N] [-iters N] [-strategy S]
            [-schedule-out F] [-flight-dir D] [-deadline D]
         fuzz lock/hook interleavings with seeded perturbation; a
         detected failure exits 5 and writes a replayable schedule
  schedfuzz replay [-flight-dir D] [-deadline D] <file>
         deterministically re-execute a recorded schedule file
  schedfuzz targets
         list registered fuzz targets
  figures [-experiment E] [-threads T] [-format table|csv] [-out F] [-ops N]
         regenerate the paper's Figure 2 panels (f2a, f2b, f2c on the
         simulated 8×10 machine; f2c-real on the host's locks) and the
         a3 shuffle-policy ablation; all runs every simulated one
  kinds  list program kinds (the Table 1 hook points)
`)
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	out := fs.String("o", "", "output directory (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("compile: exactly one source file required")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	unit, err := policydsl.CompileAndVerify(string(src))
	if err != nil {
		return err
	}
	for _, prog := range unit.Programs {
		data, err := policy.Marshal(prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "compiled %q (%s): %d insns, %d maps\n",
			prog.Name, prog.Kind, len(prog.Insns), len(prog.Maps))
		if *out == "" {
			fmt.Println(string(data))
			continue
		}
		path := filepath.Join(*out, prog.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  wrote %s\n", path)
	}
	return nil
}

func parseMapSpec(s string) (policy.Map, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 5 {
		return nil, fmt.Errorf("map spec %q: want name:type:key:value:entries", s)
	}
	atoi := func(v string) int { n, _ := strconv.Atoi(v); return n }
	spec := policy.MapSpec{
		Name: parts[0], Type: parts[1],
		KeySize: atoi(parts[2]), ValueSize: atoi(parts[3]), MaxEntries: atoi(parts[4]),
		NumCPUs: 80,
	}
	return spec.Build()
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ContinueOnError)
	kindName := fs.String("kind", "cmp_node", "program kind (see `concordctl kinds`)")
	name := fs.String("name", "policy", "program name")
	out := fs.String("o", "", "output file (default: stdout)")
	var mapSpecs multiFlag
	fs.Var(&mapSpecs, "map", "map spec name:type:key:value:entries (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm: exactly one source file required")
	}
	kind, ok := policy.KindByName(*kindName)
	if !ok {
		return fmt.Errorf("unknown kind %q", *kindName)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	maps := map[string]policy.Map{}
	for _, spec := range mapSpecs {
		m, err := parseMapSpec(spec)
		if err != nil {
			return err
		}
		maps[m.Name()] = m
	}
	prog, err := policy.Assemble(*name, kind, string(src), maps)
	if err != nil {
		return err
	}
	stats, err := policy.Verify(prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "verified: %d insns, %d helper calls, %d stack bytes, %d maps\n",
		stats.Insns, stats.HelperCalls, stats.MaxStackUsed, stats.MapRefs)
	data, err := policy.Marshal(prog)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(*out, data, 0o644)
}

func loadProgram(path string) (*policy.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return policy.Unmarshal(data)
}

func cmdVerify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("verify: one program file required")
	}
	prog, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	stats, err := policy.Verify(prog)
	if err != nil {
		return err
	}
	fmt.Printf("program %q (%s): OK\n", prog.Name, prog.Kind)
	fmt.Printf("  instructions: %d\n  helper calls: %d\n  stack bytes:  %d\n  maps:         %d\n",
		stats.Insns, stats.HelperCalls, stats.MaxStackUsed, stats.MapRefs)
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("disasm: one program file required")
	}
	prog, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	fmt.Print(prog.String())
	return nil
}

func cmdKinds() error {
	for k := policy.Kind(0); k.Valid(); k++ {
		layout := policy.LayoutFor(k)
		fields := make([]string, len(layout.Fields))
		for i, f := range layout.Fields {
			fields[i] = f.Name
		}
		fmt.Printf("%-16s ctx: %s\n", k, strings.Join(fields, " "))
	}
	return nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	policyName := fs.String("policy", "numa", "numa | inheritance | scl | fifo")
	workers := fs.Int("workers", 8, "worker goroutines")
	ops := fs.Int("ops", 5000, "operations per worker")
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo := concord.PaperTopology()
	fw := concord.New(topo)
	lock := concord.NewShflLock("demo_lock", concord.WithMaxRounds(64))
	if err := fw.RegisterLock(lock); err != nil {
		return err
	}

	if err := loadDemoPolicy(fw, *policyName); err != nil {
		return err
	}

	att, err := fw.Attach("demo_lock", *policyName)
	if err != nil {
		return err
	}
	att.Wait()
	fmt.Printf("attached policy %q to %s (livepatch drained)\n", *policyName, "demo_lock")

	prof := concord.NewProfiler()
	if err := fw.StartProfiling("demo_lock", prof); err != nil {
		return err
	}

	res := workloads.RunHashTable(lock, topo, workloads.HashTableConfig{
		Workers: *workers, OpsPerWorker: *ops, ReadFraction: 0.7,
	})
	fmt.Printf("hashtable: %d ops in %v (%.1f ops/ms)\n", res.Ops, res.Duration, res.OpsPerMSec())
	rounds, moves, skips := lock.ShuffleStats()
	fmt.Printf("shuffler: %d rounds, %d moves, %d skips; faults=%d\n", rounds, moves, skips, att.Faults())
	fmt.Println()
	return prof.Report(os.Stdout)
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
