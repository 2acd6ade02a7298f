package schedfuzz

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"concord/internal/core"
	"concord/internal/faultinject"
	"concord/internal/obs"
	"concord/internal/schedfuzz/schedstats"
	"concord/internal/topology"
)

// HarnessConfig describes a fuzzing campaign.
type HarnessConfig struct {
	// Seed is the campaign seed; iteration i derives its run seed from
	// it (iteration 0 uses it verbatim), so any failing iteration is
	// reproducible from the two integers the harness prints.
	Seed uint64
	// Strategy, MaxDelay, DelayProb, ParkProb, SiteBias, PCT*: see
	// Config. Zero values take the Config defaults.
	Strategy  string
	MaxDelay  time.Duration
	DelayProb float64
	ParkProb  float64
	SiteBias  map[string]float64

	// Target names the registered fuzz target; Params overlays its
	// defaults.
	Target string
	Params map[string]int64

	// Iterations is how many derived-seed runs to attempt (default 1).
	// The campaign stops at the first failure.
	Iterations int
	// Deadline bounds one iteration (0 = none). A tripped deadline is
	// a failure: the harness records a goroutine dump, emits the
	// schedule file and a flight bundle, and abandons the run (the
	// wedged goroutines are not recovered — the process is expected to
	// exit after a deadline failure).
	Deadline time.Duration
	// ScheduleOut is where the schedule file is written: always on
	// failure, and also on success when set. Empty defaults to
	// <target>-<seed>.schedule.json under FlightDir (or the working
	// directory) on failure only.
	ScheduleOut string
	// FlightDir, when non-empty, arms a flight recorder: failures
	// capture a diagnostic bundle with trigger "schedfuzz" there.
	FlightDir string
	// Out receives progress lines (nil = stderr).
	Out io.Writer
}

// Result is the outcome of a campaign or a replay.
type Result struct {
	// Failed reports whether a failure was detected.
	Failed bool
	// Err is the failure (InvariantError, operational error, or a
	// deadline trip), nil when the campaign passed.
	Err error
	// Seed and Iter identify the failing (or last) run.
	Seed uint64
	Iter int
	// Decisions is the number of decision points adjudicated in the
	// failing (or last) run.
	Decisions int64
	// SchedulePath is the written schedule file ("" if none).
	SchedulePath string
	// Schedule is the failing (or last) run's decision log.
	Schedule *Schedule
	// FlightBundles lists bundles captured for this run.
	FlightBundles []string
	// Reproduced is set by Replay: the replayed run failed and the
	// recorded schedule carried a failure too.
	Reproduced bool
}

// Harness drives fuzzing campaigns.
type Harness struct {
	cfg HarnessConfig
}

// NewHarness validates the configuration and returns a Harness.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Target == "" {
		cfg.Target = "lock-torture"
	}
	if _, ok := TargetByName(cfg.Target); !ok {
		return nil, fmt.Errorf("schedfuzz: unknown target %q (have %v)", cfg.Target, TargetNames())
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	return &Harness{cfg: cfg}, nil
}

// iterSeed derives iteration i's run seed from the campaign seed.
func iterSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return mix(seed ^ uint64(i)*gamma)
}

func (h *Harness) fuzzerConfig(seed uint64) Config {
	return Config{
		Seed:      seed,
		Strategy:  h.cfg.Strategy,
		MaxDelay:  h.cfg.MaxDelay,
		DelayProb: h.cfg.DelayProb,
		ParkProb:  h.cfg.ParkProb,
		SiteBias:  h.cfg.SiteBias,
	}
}

// mergedParams overlays user params on the target defaults.
func mergedParams(t Target, over map[string]int64) map[string]int64 {
	params := make(map[string]int64)
	for k, v := range t.Params() {
		params[k] = v
	}
	for k, v := range over {
		params[k] = v
	}
	return params
}

// buildEnv stands up the per-run environment, arming the diagnostic
// framework + flight recorder when FlightDir is set.
func buildEnv(f *Fuzzer, flightDir string) (*Env, *core.FlightRecorder, error) {
	env := &Env{F: f, Topo: topology.New(2, 4), FlightDir: flightDir}
	if flightDir == "" {
		return env, nil, nil
	}
	fw := core.New(env.Topo)
	fw.EnableTelemetry(obs.NewTelemetry())
	fr, err := fw.EnableFlightRecorder(core.FlightRecorderConfig{Dir: flightDir})
	if err != nil {
		return nil, nil, err
	}
	env.FW = fw
	return env, fr, nil
}

// Run executes the campaign: up to Iterations derived-seed runs of the
// target, stopping at the first failure. The returned error is
// operational (bad configuration); detected failures live in Result.
func (h *Harness) Run() (*Result, error) {
	t, _ := TargetByName(h.cfg.Target)
	params := mergedParams(t, h.cfg.Params)

	var res *Result
	for i := 0; i < h.cfg.Iterations; i++ {
		seed := iterSeed(h.cfg.Seed, i)
		fmt.Fprintf(h.cfg.Out, "schedfuzz: iter=%d target=%s strategy=%s seed=%d\n",
			i, h.cfg.Target, New(h.fuzzerConfig(seed)).cfg.Strategy, seed)

		f := New(h.fuzzerConfig(seed))
		env, fr, err := buildEnv(f, h.cfg.FlightDir)
		if err != nil {
			return nil, err
		}
		runErr, dump := h.runOne(t, env, params)
		res = h.finish(t, f, env, fr, i, runErr, dump, params)
		if res.Failed {
			schedstats.AddFailure()
			return res, nil
		}
	}
	return res, nil
}

// runOne executes one iteration under the per-iteration deadline.
// On a deadline trip it returns the goroutine dump alongside the error.
func (h *Harness) runOne(t Target, env *Env, params map[string]int64) (error, string) {
	if h.cfg.Deadline <= 0 {
		return t.Run(env, params), ""
	}
	done := make(chan error, 1)
	go func() { done <- t.Run(env, params) }()
	timer := time.NewTimer(h.cfg.Deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return err, ""
	case <-timer.C:
		return fmt.Errorf("schedfuzz: deadline %v exceeded", h.cfg.Deadline), goroutineDump()
	}
}

// finish assembles the iteration's Result, writing the schedule file
// and capturing a flight bundle as configured.
func (h *Harness) finish(t Target, f *Fuzzer, env *Env, fr *core.FlightRecorder,
	iter int, runErr error, dump string, params map[string]int64) *Result {

	s := f.Snapshot()
	s.Target = t.Name()
	s.Params = params
	if plan := env.recordedPlan(); plan != nil {
		s.SetPlan(f.Seed(), plan)
	}
	res := &Result{
		Seed:      f.Seed(),
		Iter:      iter,
		Decisions: f.Decisions(),
		Schedule:  s,
	}
	if runErr != nil {
		res.Failed = true
		res.Err = runErr
		s.Failure = &Failure{Kind: failureKind(runErr, dump != ""), Msg: runErr.Error(), Iter: iter}
	}

	writeSched := h.cfg.ScheduleOut != "" || res.Failed
	if writeSched {
		path := h.cfg.ScheduleOut
		if path == "" {
			path = filepath.Join(h.cfg.FlightDir,
				fmt.Sprintf("%s-%d.schedule.json", t.Name(), f.Seed()))
		}
		if err := s.WriteFile(path); err != nil {
			fmt.Fprintf(h.cfg.Out, "schedfuzz: schedule write failed: %v\n", err)
		} else {
			res.SchedulePath = path
			fmt.Fprintf(h.cfg.Out, "schedfuzz: wrote schedule %s (%d decisions)\n", path, res.Decisions)
		}
	}
	if res.Failed {
		fmt.Fprintf(h.cfg.Out, "schedfuzz: FAIL iter=%d seed=%d: %v\n", iter, f.Seed(), runErr)
		if dump != "" {
			fmt.Fprint(h.cfg.Out, dump)
		}
		if fr != nil {
			fr.CaptureSchedFuzz(t.Name(), runErr, res.SchedulePath, dump)
			fr.Wait()
			res.FlightBundles = fr.Bundles()
		}
	}
	return res
}

func failureKind(err error, deadline bool) string {
	switch {
	case deadline:
		return "deadline"
	case IsInvariant(err):
		return "invariant"
	default:
		return "error"
	}
}

func goroutineDump() string {
	var buf bytes.Buffer
	if prof := pprof.Lookup("goroutine"); prof != nil {
		prof.WriteTo(&buf, 2)
	}
	return buf.String()
}

// ReplayOptions configures a schedule replay.
type ReplayOptions struct {
	// FlightDir arms a flight recorder for the replayed run.
	FlightDir string
	// Deadline bounds the replay (0 = none).
	Deadline time.Duration
	// Out receives progress lines (nil = stderr).
	Out io.Writer
}

// Replay re-executes the exact decision sequence of a recorded
// schedule: the i-th firing of each decision site performs the logged
// action, and the recorded faultinject plan is re-armed with its
// pinned per-site seeds. It reports whether the recorded failure
// reproduced.
func Replay(s *Schedule, opts ReplayOptions) (*Result, error) {
	t, ok := TargetByName(s.Target)
	if !ok {
		return nil, fmt.Errorf("schedfuzz: schedule names unknown target %q (have %v)",
			s.Target, TargetNames())
	}
	if opts.Out == nil {
		opts.Out = os.Stderr
	}
	f := NewReplay(s)
	env, fr, err := buildEnv(f, opts.FlightDir)
	if err != nil {
		return nil, err
	}
	if len(s.Plan) > 0 {
		if err := s.FaultPlan().Apply(); err != nil {
			return nil, err
		}
		defer faultinject.DisarmAll()
	}
	fmt.Fprintf(opts.Out, "schedfuzz: replaying target=%s seed=%d (%d sites)\n",
		s.Target, s.Seed, len(s.Decisions))

	runErr := func() error {
		if opts.Deadline <= 0 {
			return t.Run(env, s.Params)
		}
		done := make(chan error, 1)
		go func() { done <- t.Run(env, s.Params) }()
		timer := time.NewTimer(opts.Deadline)
		defer timer.Stop()
		select {
		case err := <-done:
			return err
		case <-timer.C:
			return fmt.Errorf("schedfuzz: replay deadline %v exceeded", opts.Deadline)
		}
	}()

	res := &Result{
		Seed:      s.Seed,
		Decisions: f.Decisions(),
		Schedule:  f.Snapshot(),
		Failed:    runErr != nil,
		Err:       runErr,
	}
	res.Schedule.Target = s.Target
	res.Schedule.Params = s.Params
	if plan := env.recordedPlan(); plan != nil {
		// Mirror the recording path: a target that re-arms its fault
		// plan on replay gets it re-recorded, so replayed logs stay
		// byte-comparable to their canned originals.
		res.Schedule.SetPlan(f.Seed(), plan)
	}
	if runErr != nil {
		res.Reproduced = s.Failure != nil
		schedstats.AddFailure()
		fmt.Fprintf(opts.Out, "schedfuzz: replay FAILED: %v\n", runErr)
		if fr != nil {
			fr.CaptureSchedFuzz(s.Target, runErr, "", "")
			fr.Wait()
			res.FlightBundles = fr.Bundles()
		}
	} else {
		fmt.Fprintf(opts.Out, "schedfuzz: replay completed clean\n")
	}
	return res, nil
}

// ReplayFile loads a schedule file and replays it.
func ReplayFile(path string, opts ReplayOptions) (*Result, error) {
	s, err := ReadSchedule(path)
	if err != nil {
		return nil, err
	}
	return Replay(s, opts)
}
