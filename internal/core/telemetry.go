package core

import (
	"sort"

	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/policy/jit"
	"concord/internal/profile"
)

// attachmentTier summarises an attachment's effective execution tier
// for telemetry rows: "vm!" when TierForceVM forces the interpreter, or
// the admission-time per-program outcome ("jit", "vm", or "mixed";
// "native" for pure Go hook tables).
func attachmentTier(p *Policy, mode TierMode) string {
	if mode == TierForceVM {
		return "vm!"
	}
	if len(p.Programs) == 0 {
		if p.Native != nil {
			return "native"
		}
		return ""
	}
	jits, vms := 0, 0
	for k := range p.Programs {
		if ch, ok := p.Tiers[k]; ok && ch.Tier == jit.TierJIT {
			jits++
		} else {
			vms++
		}
	}
	switch {
	case vms == 0:
		return "jit"
	case jits == 0:
		return "vm"
	default:
		return "mixed"
	}
}

// EnableTelemetry attaches a telemetry bundle to the framework. Every
// registered lock (current and future) gets counting and wait/hold
// histogram hooks composed after its policy and profiler; framework
// lifecycle events (loads, attaches, faults, safety trips), livepatch
// transitions and drain latencies, and per-program policy VM counters
// are recorded into t's registry.
//
// The livepatch and lock-safety observers are process-global (those
// packages sit below obs in the import graph), so enabling telemetry on
// two frameworks at once routes patch and safety events to the most
// recently enabled one; each framework's own lock and lifecycle metrics
// stay separate. Call with nil to detach the observers.
func (f *Framework) EnableTelemetry(t *obs.Telemetry) {
	f.mu.Lock()
	f.tel = t
	if t == nil {
		f.mu.Unlock()
		livepatch.SetPatchObserver(nil)
		livepatch.SetDrainObserver(nil)
		locks.SetSafetyObserver(nil)
		return
	}
	t.LocksRegistered.Set(int64(len(f.locks)))
	t.PoliciesLoaded.Set(int64(len(f.policies)))

	// Re-publish every lock's hook table so telemetry composes in.
	type repatch struct {
		st    *lockState
		hooks *locks.Hooks
	}
	var patches []repatch
	for _, st := range f.locks {
		var p *Policy
		var ad *adapter
		if st.attached != nil && st.sup != nil {
			p = f.policies[st.attached.Policy]
			// Adapters report faults through the framework's telemetry
			// pointer at fault time, so no per-adapter rewiring is needed
			// when telemetry is enabled late.
			ad = st.sup.ad
		}
		patches = append(patches, repatch{st, f.effectiveHooks(st, p, ad)})
	}
	f.mu.Unlock()

	for _, r := range patches {
		r.st.hooked.HookSlot().Replace("telemetry:"+r.st.lock.Name(), r.hooks)
	}

	transitions := t.PatchTransitions
	livepatch.SetPatchObserver(func(string) { transitions.Inc() })
	drain := t.DrainLatency
	livepatch.SetDrainObserver(func(_ string, drainNS int64) { drain.Observe(drainNS) })
	// Safety trips route through the supervisor (re-installed here in
	// case another framework claimed the process-global observer since
	// New).
	locks.SetSafetyObserver(f.handleSafetyTrip)

	t.Registry.AddExternal(f.collectVMStats)
	t.Registry.AddExternal(f.collectLockRobustness)
	t.Registry.AddExternal(f.collectMapStats)
}

// collectMapStats emits the map-plane counters of every loaded policy's
// maps (kinds implementing policy.StatsProvider): live occupancy,
// insert-probe collisions, and optimistic read-path retries. The maps
// keep their own atomics; the registry reads them only at scrape time.
func (f *Framework) collectMapStats(add func(obs.Sample)) {
	for _, pm := range f.policyMaps() {
		st := pm.stats.MapStats()
		labels := []string{"policy", pm.policy, "map", pm.m.Name(), "kind", policy.MapKindOf(pm.m)}
		// Occupancy is live entries only; dead (tombstoned) slots are
		// reported separately so fill-ratio dashboards don't count
		// deleted keys against capacity.
		add(obs.Sample{Name: "concord_map_occupancy", Kind: obs.KindGauge,
			Labels: labels, Value: float64(st.Occupancy)})
		add(obs.Sample{Name: "concord_map_tombstones", Kind: obs.KindGauge,
			Labels: labels, Value: float64(st.Tombstones)})
		add(obs.Sample{Name: "concord_map_collisions_total", Kind: obs.KindCounter,
			Labels: labels, Value: float64(st.Collisions)})
		add(obs.Sample{Name: "concord_map_optimistic_retries_total", Kind: obs.KindCounter,
			Labels: labels, Value: float64(st.Retries)})
		add(obs.Sample{Name: "concord_map_capacity", Kind: obs.KindGauge,
			Labels: labels, Value: float64(st.Capacity)})
	}
}

type policyMap struct {
	policy string
	m      policy.Map
	stats  policy.StatsProvider
}

// policyMaps lists each stats-capable map of every loaded policy once,
// even when several of the policy's programs share it.
func (f *Framework) policyMaps() []policyMap {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []policyMap
	for name, p := range f.policies {
		seen := make(map[policy.Map]bool)
		for _, prog := range p.Programs {
			for _, m := range prog.Maps {
				if seen[m] {
					continue
				}
				seen[m] = true
				if sp, ok := m.(policy.StatsProvider); ok {
					out = append(out, policyMap{name, m, sp})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].policy != out[j].policy {
			return out[i].policy < out[j].policy
		}
		return out[i].m.Name() < out[j].m.Name()
	})
	return out
}

// collectLockRobustness emits per-lock robustness counters kept by the
// lock implementations themselves: switch aborts (bounded-drain lock
// switching) and park rescues (lost-wakeup watchdog recoveries).
func (f *Framework) collectLockRobustness(add func(obs.Sample)) {
	f.mu.Lock()
	type src struct {
		name string
		lock locks.Lock
	}
	srcs := make([]src, 0, len(f.locks))
	for name, st := range f.locks {
		srcs = append(srcs, src{name, st.lock})
	}
	f.mu.Unlock()
	for _, s := range srcs {
		if a, ok := s.lock.(interface{ Aborts() int64 }); ok {
			add(obs.Sample{Name: "concord_switch_aborts_total", Kind: obs.KindCounter,
				Labels: []string{"lock", s.name}, Value: float64(a.Aborts())})
		}
		if r, ok := s.lock.(interface{ ParkRescues() int64 }); ok {
			add(obs.Sample{Name: "concord_park_rescues_total", Kind: obs.KindCounter,
				Labels: []string{"lock", s.name}, Value: float64(r.ParkRescues())})
		}
		if o, ok := s.lock.(locks.OCCCapable); ok {
			st := o.OCCStats()
			labels := []string{"lock", s.name}
			add(obs.Sample{Name: "concord_occ_reads_total", Kind: obs.KindCounter,
				Labels: labels, Value: float64(st.Reads)})
			add(obs.Sample{Name: "concord_occ_aborts_total", Kind: obs.KindCounter,
				Labels: labels, Value: float64(st.Aborts)})
			add(obs.Sample{Name: "concord_occ_promotions_total", Kind: obs.KindCounter,
				Labels: labels, Value: float64(st.Promotions)})
			add(obs.Sample{Name: "concord_occ_demotions_total", Kind: obs.KindCounter,
				Labels: labels, Value: float64(st.Demotions)})
			promoted := 0.0
			if st.Promoted {
				promoted = 1
			}
			add(obs.Sample{Name: "concord_occ_promoted", Kind: obs.KindGauge,
				Labels: labels, Value: promoted})
		}
	}
}

// Telemetry returns the bundle passed to EnableTelemetry, or nil.
func (f *Framework) Telemetry() *obs.Telemetry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tel
}

// collectVMStats emits the policy VM execution counters of every loaded
// program, labeled by policy, hook kind, and program name. Registered as
// an external collector: programs keep their own atomics (ExecStats) and
// the registry reads them only at scrape time.
func (f *Framework) collectVMStats(add func(obs.Sample)) {
	f.mu.Lock()
	pols := make([]*Policy, 0, len(f.policies))
	for _, p := range f.policies {
		pols = append(pols, p)
	}
	f.mu.Unlock()

	counter := func(name string, labels []string, v int64) {
		add(obs.Sample{Name: name, Kind: obs.KindCounter, Labels: labels, Value: float64(v)})
	}
	for _, p := range pols {
		for kind, prog := range p.Programs {
			st := prog.Stats()
			labels := []string{"policy", p.Name, "kind", kind.String(), "program", prog.Name}
			counter("concord_vm_runs_total", labels, st.Runs.Load())
			counter("concord_vm_instructions_total", labels, st.Insns.Load())
			counter("concord_vm_helper_calls_total", labels, st.HelperCalls.Load())
			counter("concord_vm_map_ops_total", labels, st.MapOps.Load())
			counter("concord_vm_faults_total", labels, st.Faults.Load())
			counter("concord_policy_jit_runs_total", labels, st.JITRuns.Load())
			jitOn := int64(0)
			if ch, ok := p.Tiers[kind]; ok && ch.Tier == jit.TierJIT {
				jitOn = 1
			}
			add(obs.Sample{Name: "concord_policy_jit_enabled", Kind: obs.KindGauge,
				Labels: labels, Value: float64(jitOn)})
		}
	}
}

// LockRows returns per-lock telemetry rows (most wait time first), with
// each row's Policy filled from the current attachment. Requires
// EnableTelemetry; returns nil otherwise.
func (f *Framework) LockRows() []obs.LockRow {
	f.mu.Lock()
	tel := f.tel
	attached := make(map[string]string, len(f.locks))
	costs := make(map[string]int64, len(f.locks))
	tiers := make(map[string]string, len(f.locks))
	for name, st := range f.locks {
		if st.attached != nil {
			attached[name] = st.attached.Policy
			if p := f.policies[st.attached.Policy]; p != nil {
				costs[name] = p.CostBound()
				tiers[name] = attachmentTier(p, st.attached.TierMode())
			}
		}
	}
	f.mu.Unlock()
	if tel == nil {
		return nil
	}
	breakers := f.breakerByLock()
	rows := tel.LockRows()
	windows := make(map[string]profile.WindowSnapshot)
	for _, w := range f.WindowSnapshots() {
		windows[w.Lock] = w
	}
	for i := range rows {
		rows[i].Policy = attached[rows[i].Lock]
		rows[i].Breaker = breakers[rows[i].Lock]
		rows[i].CostBoundNS = costs[rows[i].Lock]
		rows[i].Tier = tiers[rows[i].Lock]
		if w, ok := windows[rows[i].Lock]; ok {
			rows[i].RecentContentionPerMille = w.ContentionPerMille
			rows[i].RecentWaitP99NS = w.WaitP99NS
			rows[i].RecentWindowNS = w.EndNS - w.StartNS
		}
	}
	return rows
}

// PolicyRow is one loaded policy's summary for the /policies endpoint.
type PolicyRow struct {
	Name        string   `json:"name"`
	Kinds       []string `json:"kinds"`
	Native      bool     `json:"native,omitempty"`
	CostBoundNS int64    `json:"cost_bound_ns,omitempty"`
	AttachedTo  []string `json:"attached_to,omitempty"`
	// Tiers maps hook kind -> admitted execution tier ("vm"/"jit").
	Tiers       map[string]string `json:"tiers,omitempty"`
	Runs        int64             `json:"vm_runs"`
	Insns       int64             `json:"vm_instructions"`
	HelperCalls int64             `json:"vm_helper_calls"`
	MapOps      int64             `json:"vm_map_ops"`
	Faults      int64             `json:"vm_faults"`
	JITRuns     int64             `json:"jit_runs"`
	Maps        []MapRow          `json:"maps,omitempty"`
}

// MapRow is one policy map's data-plane summary.
type MapRow struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Occupancy counts live entries; Tombstones counts dead slots
	// awaiting reuse. They are reported separately so the
	// fill ratio reflects reachable keys, not deletion history.
	Occupancy  int64  `json:"occupancy"`
	Tombstones int64  `json:"tombstones"`
	MaxEntries int    `json:"max_entries"`
	Capacity   int    `json:"capacity,omitempty"`
	Collisions uint64 `json:"collisions"`
	Retries    uint64 `json:"optimistic_retries"`
}

// PolicyRows summarizes every loaded policy: hook kinds, attachment
// targets, and VM counters aggregated across the policy's programs.
func (f *Framework) PolicyRows() []PolicyRow {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := make([]PolicyRow, 0, len(f.policies))
	for name, p := range f.policies {
		row := PolicyRow{Name: name, Native: p.Native != nil, CostBoundNS: p.CostBound()}
		for _, k := range p.Kinds() {
			row.Kinds = append(row.Kinds, k.String())
		}
		sort.Strings(row.Kinds)
		for lockName, st := range f.locks {
			if st.attached != nil && st.attached.Policy == name {
				row.AttachedTo = append(row.AttachedTo, lockName)
			}
		}
		sort.Strings(row.AttachedTo)
		if len(p.Tiers) > 0 {
			row.Tiers = make(map[string]string, len(p.Tiers))
			for k := range p.Programs {
				row.Tiers[k.String()] = p.Tier(k)
			}
		}
		seen := make(map[policy.Map]bool)
		for _, prog := range p.Programs {
			st := prog.Stats()
			row.Runs += st.Runs.Load()
			row.Insns += st.Insns.Load()
			row.HelperCalls += st.HelperCalls.Load()
			row.MapOps += st.MapOps.Load()
			row.Faults += st.Faults.Load()
			row.JITRuns += st.JITRuns.Load()
			for _, m := range prog.Maps {
				if seen[m] {
					continue
				}
				seen[m] = true
				mr := MapRow{Name: m.Name(), Kind: policy.MapKindOf(m), MaxEntries: m.MaxEntries()}
				if sp, ok := m.(policy.StatsProvider); ok {
					st := sp.MapStats()
					mr.Occupancy, mr.Collisions, mr.Retries = st.Occupancy, st.Collisions, st.Retries
					mr.Tombstones, mr.Capacity = st.Tombstones, st.Capacity
				}
				row.Maps = append(row.Maps, mr)
			}
		}
		sort.Slice(row.Maps, func(i, j int) bool { return row.Maps[i].Name < row.Maps[j].Name })
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// LockNameByID resolves a registered lock's ID to its name ("" when
// unknown); the trace exporter uses it to label tracks.
func (f *Framework) LockNameByID(id uint64) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, st := range f.locks {
		if st.lock.ID() == id {
			return name
		}
	}
	return ""
}
