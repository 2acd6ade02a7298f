package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"text/tabwriter"
	"time"

	"concord"
	"concord/internal/workloads"
)

// loadDemoPolicy loads one of the built-in demo policies into fw under
// its own name: "numa" assembles and verifies the cBPF socket-grouping
// program; the rest are pre-compiled native baselines.
func loadDemoPolicy(fw *concord.Framework, name string) error {
	switch name {
	case "numa":
		prog := concord.MustAssemble("numa", concord.KindCmpNode, `
			mov   r6, r1
			ldxdw r2, [r6+curr_socket]
			ldxdw r3, [r6+shuffler_socket]
			jeq   r2, r3, group
			mov   r0, 0
			exit
		group:
			mov   r0, 1
			exit
		`, nil)
		_, err := fw.LoadPolicy("numa", prog)
		return err
	case "inheritance":
		_, err := fw.LoadNative("inheritance", concord.InheritanceHooks())
		return err
	case "scl":
		_, err := fw.LoadNative("scl", concord.SCLHooks())
		return err
	case "fifo":
		_, err := fw.LoadNative("fifo", concord.FIFOHooks())
		return err
	case "acquired":
		// Trivial cBPF program on the lock_acquired hook, which runs on
		// every acquisition — contended or not. The robustness demo
		// (`health -inject`) targets it so an injected hook fault fires
		// even on hosts where the workload never queues (the shuffler
		// hooks only run under contention).
		prog := concord.MustAssemble("acquired", concord.KindLockAcquired, `
			mov r0, 1
			exit
		`, nil)
		_, err := fw.LoadPolicy("acquired", prog)
		return err
	}
	return fmt.Errorf("unknown demo policy %q", name)
}

// serveSession is the in-process framework + lock behind `serve` and
// the in-process mode of `top`: a telemetry-enabled framework with one
// ShflLock-protected hashtable the session drives load against.
type serveSession struct {
	fw   *concord.Framework
	lock *concord.ShflLock
	topo *concord.Topology

	workers, ops int
}

func startServeSession(policyName string, workers, ops int) (*serveSession, error) {
	return startSupervisedSession(policyName, workers, ops, concord.SupervisorConfig{})
}

// profileWindow is the continuous-profiling window for in-process
// sessions; `top -window` and `profile -window` override it.
var profileWindow = time.Second

// startSupervisedSession is startServeSession with an explicit
// supervisor (circuit breaker) configuration, set before the policy is
// attached. The zero config is the one-shot fault valve. Sessions run
// with sampled continuous profiling enabled, so `top` has windowed
// columns and /debug/concord/contention serves a pprof profile.
func startSupervisedSession(policyName string, workers, ops int, supCfg concord.SupervisorConfig) (*serveSession, error) {
	topo := concord.PaperTopology()
	fw := concord.New(topo, concord.WithTelemetry(),
		concord.WithContinuousProfiling(concord.ContinuousProfilerConfig{Window: profileWindow}))
	fw.SetSupervisorConfig(supCfg)
	lock := concord.NewShflLock("demo_lock", concord.WithMaxRounds(64))
	if err := fw.RegisterLock(lock); err != nil {
		return nil, err
	}
	if policyName != "" && policyName != "none" {
		if err := loadDemoPolicy(fw, policyName); err != nil {
			return nil, err
		}
		att, err := fw.Attach("demo_lock", policyName)
		if err != nil {
			return nil, err
		}
		att.Wait()
	}
	return &serveSession{fw: fw, lock: lock, topo: topo, workers: workers, ops: ops}, nil
}

// runWorkload drives one hashtable round through the instrumented lock.
func (s *serveSession) runWorkload() {
	workloads.RunHashTable(s.lock, s.topo, workloads.HashTableConfig{
		Workers: s.workers, OpsPerWorker: s.ops, ReadFraction: 0.7,
	})
}

func cmdServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", "127.0.0.1:6060", "listen address (port 0 picks a free port)")
	policyName := fs.String("policy", "numa", "policy to attach: numa | inheritance | scl | fifo | acquired | none")
	workers := fs.Int("workers", 8, "workload worker goroutines")
	ops := fs.Int("ops", 2000, "operations per worker per workload round")
	duration := fs.Duration("duration", 0, "stop after this long (0 = serve until killed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}

	sess, err := startServeSession(*policyName, *workers, *ops)
	if err != nil {
		return err
	}
	srv, err := concord.NewTelemetryServer(sess.fw)
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "serving telemetry on http://%s\n", srv.Addr())
	fmt.Fprintf(stdout, "endpoints: /metrics (?format=json) /locks /policies /health /trace /debug/pprof/\n")

	var deadline time.Time
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	for deadline.IsZero() || time.Now().Before(deadline) {
		sess.runWorkload()
	}
	rows := sess.fw.LockRows()
	fmt.Fprintf(stdout, "served %s of load; final lock stats:\n", *duration)
	printLockTable(stdout, rows)
	printPolicyMapTable(stdout, sess.fw.PolicyRows())
	return nil
}

func cmdTop(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", "", "scrape a running `concordctl serve` at this address; empty runs an in-process workload")
	n := fs.Int("n", 1, "iterations to print (0 = forever)")
	interval := fs.Duration("interval", time.Second, "delay between iterations")
	policyName := fs.String("policy", "numa", "policy for in-process mode")
	workers := fs.Int("workers", 8, "in-process workload worker goroutines")
	ops := fs.Int("ops", 2000, "in-process operations per worker per iteration")
	window := fs.Duration("window", time.Second, "continuous-profiling window for in-process mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("top: unexpected arguments %q", fs.Args())
	}
	profileWindow = *window

	var rows func() ([]concord.LockRow, error)
	var prows func() ([]concord.PolicyRow, error)
	if *addr != "" {
		rows = func() ([]concord.LockRow, error) { return scrapeLockRows(*addr) }
		prows = func() ([]concord.PolicyRow, error) { return scrapePolicyRows(*addr) }
	} else {
		sess, err := startServeSession(*policyName, *workers, *ops)
		if err != nil {
			return err
		}
		rows = func() ([]concord.LockRow, error) {
			sess.runWorkload()
			return sess.fw.LockRows(), nil
		}
		prows = func() ([]concord.PolicyRow, error) { return sess.fw.PolicyRows(), nil }
	}
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		rs, err := rows()
		if err != nil {
			return err
		}
		printLockTable(stdout, rs)
		ps, err := prows()
		if err != nil {
			return err
		}
		printPolicyMapTable(stdout, ps)
	}
	return nil
}

// scrapeLockRows fetches /locks from a running telemetry server.
func scrapeLockRows(addr string) ([]concord.LockRow, error) {
	resp, err := http.Get("http://" + addr + "/locks")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("top: %s/locks: %s", addr, resp.Status)
	}
	var rows []concord.LockRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("top: decoding /locks: %w", err)
	}
	return rows, nil
}

// scrapePolicyRows fetches /policies from a running telemetry server.
func scrapePolicyRows(addr string) ([]concord.PolicyRow, error) {
	resp, err := http.Get("http://" + addr + "/policies")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("top: %s/policies: %s", addr, resp.Status)
	}
	var rows []concord.PolicyRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("top: decoding /policies: %w", err)
	}
	return rows, nil
}

// printPolicyMapTable renders the map data plane of each loaded policy:
// live occupancy against budget, dead (tombstoned) slots, insert-probe
// collisions and optimistic read retries. LIVE counts
// reachable keys only — deleted-but-unreclaimed slots go in the DEAD
// column, so the fill ratio isn't inflated by deletion history.
// Policies without maps are omitted; no table prints when nothing has
// one.
func printPolicyMapTable(w io.Writer, rows []concord.PolicyRow) {
	any := false
	for _, r := range rows {
		if len(r.Maps) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "POLICY\tMAP\tKIND\tLIVE\tDEAD\tBUDGET\tCOLL\tRETRY")
	for _, r := range rows {
		for _, m := range r.Maps {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
				r.Name, m.Name, m.Kind, m.Occupancy, m.Tombstones, m.MaxEntries,
				m.Collisions, m.Retries)
		}
	}
	tw.Flush()
}

// printLockTable renders lock rows (already sorted most-waited-first).
// CONT‰ and RWAIT-P99 are windowed: the last continuous-profiling
// window's contention rate and p99 wait, "-" when profiling is off or
// no window has data.
func printLockTable(w io.Writer, rows []concord.LockRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "LOCK\tPOLICY\tTIER\tCOST\tBRK\tACQ\tCONT\tCONT‰\tREADS\tWAIT-TOTAL\tWAIT-MEAN\tWAIT-P99\tRWAIT-P99\tHOLD-MEAN\tHOLD-MAX")
	for _, r := range rows {
		cost := "-"
		if r.CostBoundNS > 0 {
			// No rounding: static bounds are single-digit ns for cheap
			// policies and would round to 0s.
			cost = time.Duration(r.CostBoundNS).String()
		}
		recentRate, recentP99 := "-", "-"
		if r.RecentWindowNS > 0 {
			recentRate = strconv.FormatInt(r.RecentContentionPerMille, 10)
			recentP99 = fmtDur(r.RecentWaitP99NS)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Lock, orDash(r.Policy), orDash(r.Tier), cost, orDash(r.Breaker),
			r.Acquisitions, r.Contentions, recentRate, r.ReadAcqs,
			fmtDur(r.WaitTotalNS), fmtDur(r.WaitMeanNS), fmtDur(r.WaitP99NS), recentP99,
			fmtDur(r.HoldMeanNS), fmtDur(r.HoldMaxNS))
	}
	tw.Flush()
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}
