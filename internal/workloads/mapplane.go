package workloads

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"concord/internal/policy"
)

// MapPlaneConfig parameterizes RunMapPlane.
type MapPlaneConfig struct {
	Workers      int
	OpsPerWorker int
	Keys         int64 // distinct keys the workers hash into the map
	NumCPUs      int   // virtual CPUs; worker w runs as CPU w % NumCPUs
	MeasureAlloc bool  // bracket the measured phase with MemStats
}

func (c *MapPlaneConfig) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 4096
	}
	if c.Keys <= 0 {
		c.Keys = 256
	}
	if c.NumCPUs <= 0 {
		c.NumCPUs = 8
	}
}

// MapPlaneProgram assembles and verifies the counting policy RunMapPlane
// drives: derive a key from task_id, bump its counter with map_add, read
// it back with map_lookup — and every 33rd op, delete the key first so
// it is reinserted. This is the shape of the shipped profiler policies
// (profile-waits) plus eviction churn, reduced to pure map-plane work so
// the cell measures helper/map overhead rather than lock contention.
// The churn arm is what keeps insert-path allocation in the measurement:
// without it a warmed map never inserts and every implementation looks
// alloc-free in steady state.
func MapPlaneProgram(m policy.Map, keys int64) (*policy.Program, error) {
	if keys <= 0 {
		return nil, fmt.Errorf("mapplane: keys must be positive")
	}
	src := fmt.Sprintf(`
		call  task_id
		mov   r7, r0
		mod   r0, %d
		stxdw [fp-8], r0
		mod   r7, 33
		jne   r7, 0, add
		ldmap r1, plane
		mov   r2, fp
		add   r2, -8
		call  map_delete
	add:
		ldmap r1, plane
		mov   r2, fp
		add   r2, -8
		mov   r3, 1
		call  map_add
		ldmap r1, plane
		mov   r2, fp
		add   r2, -8
		call  map_lookup
		mov   r0, 0
		exit
	`, keys)
	p, err := policy.Assemble("mapplane", policy.KindLockAcquired, src,
		map[string]policy.Map{"plane": m})
	if err != nil {
		return nil, err
	}
	if _, err := policy.Verify(p); err != nil {
		return nil, err
	}
	return p, nil
}

// RunMapPlane drives the counting policy against m from cfg.Workers
// goroutines, on the interpreter (task_id and map_delete are outside the
// tree grammar), and reports program executions per unit time (each op is
// one map_add + one map_lookup through the full helper path). Workers warm the map first — every key is inserted before the
// clock starts — so the measured phase is the steady state a long-lived
// profiler policy sees. The map must have 8-byte keys and ≥8-byte
// values and at least cfg.Keys entries.
func RunMapPlane(m policy.Map, cfg MapPlaneConfig) Result {
	cfg.setDefaults()
	prog, err := MapPlaneProgram(m, cfg.Keys)
	if err != nil {
		panic(err) // spec error: misuse of the harness, not a runtime condition
	}
	layout := policy.LayoutFor(policy.KindLockAcquired)

	res := Result{PerTask: make([]int64, cfg.Workers)}
	var warm, measured sync.WaitGroup
	start := make(chan struct{})
	warm.Add(cfg.Workers)
	measured.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			ctx := policy.Ctx{Layout: layout, Words: make([]uint64, len(layout.Fields))}
			// Worker w walks the key space with stride Workers, so keys
			// interleave across workers and hot counters are genuinely
			// shared (the contention per-CPU maps exist to remove).
			seq := int64(w)
			env := &policy.FuncEnv{
				CPUFn: func() int { return w % cfg.NumCPUs },
				TaskIDFn: func() int64 {
					id := seq
					seq += int64(cfg.Workers)
					return id
				},
			}
			// Warmup: one full pass over the key space populates every
			// slot this worker will touch (inserts happen here, not in
			// the measured phase).
			warmOps := int(cfg.Keys)
			for i := 0; i < warmOps; i++ {
				if _, err := policy.Exec(prog, &ctx, env); err != nil {
					panic(err)
				}
			}
			warm.Done()
			<-start
			for i := 0; i < cfg.OpsPerWorker; i++ {
				if _, err := policy.Exec(prog, &ctx, env); err != nil {
					panic(err)
				}
				res.PerTask[w]++
				if i&255 == 255 {
					runtime.Gosched()
				}
			}
			measured.Done()
		}(w)
	}
	warm.Wait()

	var before, after runtime.MemStats
	if cfg.MeasureAlloc {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	close(start)
	measured.Wait()
	res.Duration = time.Since(t0)
	if cfg.MeasureAlloc {
		runtime.ReadMemStats(&after)
	}
	for _, v := range res.PerTask {
		res.Ops += v
	}
	if cfg.MeasureAlloc && res.Ops > 0 {
		res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
	}
	return res
}
