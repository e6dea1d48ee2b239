package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/harness"
	"nlarm/internal/loadgen"
	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/sim"
	"nlarm/internal/stats"
)

// subSeeds is how many inputs derived from one -seed the simulator and
// miniMD workloads cycle through, one per round. Their allocation
// volume depends on the input (one large slice grows in steps, a
// placement changes how long a simulated job runs), so a run averages
// over a few inputs instead of reporting one; from the second cycle on
// every round must reproduce its predecessor on the same input exactly.
const subSeeds = 4

func subSeed(seed uint64, k int) uint64 { return seed + uint64(k)*1_000_003 }

// cycle walks the inputs round by round and remembers the digest of the
// first round on each.
type cycle struct {
	digests [subSeeds]string
	n       int
}

// next is the input of the coming round.
func (c *cycle) next() int {
	k := c.n % subSeeds
	c.n++
	return k
}

// repeat records digest as input k's result if it is the first and
// otherwise reports whether it reproduces the first.
func (c *cycle) repeat(k int, digest string) (first, same bool) {
	if c.digests[k] == "" {
		c.digests[k] = digest
		return true, true
	}
	return false, c.digests[k] == digest
}

// simRig runs one simulator scenario per round.
type simRig struct {
	cycle
	e    *env
	cfgs [subSeeds]sim.ScenarioConfig
	wait float64
}

func simConfig(e *env, seed uint64, policy bool, jobs int) sim.ScenarioConfig {
	nodes := 1024
	if e.toy {
		nodes = 128
	}
	cfg := sim.ScenarioConfig{
		Seed:         seed,
		Nodes:        nodes,
		CoresPerNode: 8,
		Workload:     sim.ScaledWorkload(jobs, nodes, 0.65),
		Discipline:   sim.EASY,
	}
	if policy {
		cfg.Policy = &sim.PolicyConfig{}
	}
	return cfg
}

func buildSim(e *env, policy bool) (rig, error) {
	jobs := 250_000
	if policy {
		jobs = 25_000
	}
	if e.toy {
		jobs /= 100
	}
	r := &simRig{e: e}
	for k := range r.cfgs {
		r.cfgs[k] = simConfig(e, subSeed(e.seed, k), policy, jobs)
	}
	// Warm-up: the same scenario shape at a tenth of the jobs.
	if _, err := sim.RunScenario(simConfig(e, e.seed, policy, jobs/10), nil); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *simRig) close() {}

func (r *simRig) round(rs *roundStats) {
	k := r.next()
	cfg := r.cfgs[k]
	t0 := time.Now()
	res, err := sim.RunScenario(cfg, nil)
	wall := time.Since(t0)
	rs.attempted++
	rs.ops += cfg.Workload.TotalJobs()
	if err != nil || res.Completed+res.Rejected != res.Jobs || res.Completed == 0 {
		rs.failed++
		return
	}
	first, same := r.repeat(k, res.Digest)
	if !same {
		rs.failed++
		return
	}
	if first && k == 0 {
		r.wait = res.MeanWaitSec
	}
	rs.opMs = append(rs.opMs, float64(wall)/1e6)
	rs.work += float64(res.Completed)
	rs.workWall += wall
}

func (r *simRig) quality(m map[string]float64) { m["quality.sim_mean_wait_s"] = r.wait }

// countWriter counts the bytes of the job trace.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// ladder times the simulator's parts from outside: the workload
// generator drained alone, one scenario with its trace counted, the
// policy overlay as the difference to the capacity twin, the three
// allocator entry points the overlay calls per job, and an 8-config
// sweep at one worker and at all CPUs.
func (r *simRig) ladder(m map[string]float64) error {
	cfg := r.cfgs[0]
	jobs := float64(cfg.Workload.TotalJobs())
	gen, err := loadgen.NewWorkloadGen(cfg.Workload, epoch, cfg.Seed)
	if err != nil {
		return err
	}
	genMs := timeMs(func() {
		for {
			if _, ok := gen.Next(); !ok {
				return
			}
		}
	})
	m["loadgen.gen_us_per_job"] = 1000 * genMs / jobs

	var cw countWriter
	res, err := sim.RunScenario(cfg, io.Writer(&cw))
	if err != nil {
		return err
	}
	wallMs := float64(res.WallTime) / 1e6
	m["sim.trace.bytes_per_job"] = float64(cw.n) / jobs
	m["sim.events_per_s"] = float64(res.EventsFired) / res.WallTime.Seconds()
	m["sim.loop.us_per_job"] = 1000 * (wallMs - genMs) / jobs

	if p := res.Policy; p != nil {
		twin := cfg
		twin.Policy = nil
		cap, err := sim.RunScenario(twin, nil)
		if err != nil {
			return err
		}
		m["sim.policy.us_per_job"] = float64((res.WallTime - cap.WallTime).Microseconds()) / jobs
		m["sim.policy.model_builds"] = float64(p.ModelBuilds)
		m["sim.policy.model_refreshes"] = float64(p.ModelRefreshes)
		m["sim.policy.charged_decisions"] = float64(p.ChargedDecisions)
		m["sim.policy.fallback_decisions"] = float64(p.FallbackDecisions)
		if err := constrainedLadder(r.e, cfg.Nodes, m); err != nil {
			return err
		}
	}

	if r.e.nproc > 1 {
		var cfgs []sim.ScenarioConfig
		sweepJobs := 10_000
		if r.e.toy {
			sweepJobs = 200
		}
		for s := uint64(1); s <= 8; s++ {
			c := simConfig(r.e, r.e.seed+s, false, sweepJobs)
			c.Nodes = cfg.Nodes / 4
			c.Workload = sim.ScaledWorkload(sweepJobs, c.Nodes, 0.65)
			cfgs = append(cfgs, c)
		}
		one, err := sim.RunMany(cfgs, 1)
		if err != nil {
			return err
		}
		all, err := sim.RunMany(cfgs, r.e.nproc)
		if err != nil {
			return err
		}
		if one.Digest != all.Digest {
			return fmt.Errorf("sweep digest moved with the worker count")
		}
		m["sim.sweep.par_speedup"] = one.WallTime.Seconds() / all.WallTime.Seconds()
	}
	return nil
}

// constrainedLadder calls the three allocator entry points of the
// policy overlay directly, on a synthetic n-node model in the state the
// overlay keeps it: about two thirds of the nodes busy, one placement's
// worth of ranks reserved.
func constrainedLadder(e *env, n int, m map[string]float64) error {
	r := rng.New(e.seed)
	snap := &metrics.Snapshot{
		Taken:     epoch,
		Nodes:     make(map[int]metrics.NodeAttrs, n),
		Latency:   map[metrics.PairKey]metrics.PairLatency{},
		Bandwidth: map[metrics.PairKey]metrics.PairBandwidth{},
	}
	const rack = 64
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		load := r.Range(0, 2)
		snap.Nodes[i] = metrics.NodeAttrs{
			NodeID: i, Hostname: "sim", Timestamp: epoch, Cores: 8, FreqGHz: 3, TotalMemMB: 16384,
			CPULoad:     stats.Windowed{M1: load, M5: load, M15: load},
			CPUUtilPct:  stats.Windowed{M1: load * 10, M5: load * 10, M15: load * 10},
			FlowRateBps: stats.Windowed{M1: r.Range(1e5, 1e7), M5: 1e6, M15: 1e6},
			AvailMemMB:  stats.Windowed{M1: r.Range(4000, 15000), M5: 12000, M15: 12000},
		}
		for j := i - i%rack; j < i; j++ {
			k := metrics.Pair(i, j)
			d := time.Duration(50+r.Intn(100)) * time.Microsecond
			snap.Latency[k] = metrics.PairLatency{U: k.U, V: k.V, Timestamp: epoch, Last: d, Mean1: d}
			snap.Bandwidth[k] = metrics.PairBandwidth{U: k.U, V: k.V, Timestamp: epoch, AvailBps: r.Range(80e6, 120e6), PeakBps: 125e6}
		}
	}
	req, err := alloc.Request{Procs: 32, PPN: 8}.Validate()
	if err != nil {
		return err
	}
	model := alloc.NewCostModel(snap, req.Weights, false)
	caps := make([]int, n)
	var cand, reservedIDs, reservedRanks, changed []int
	for i := range caps {
		switch {
		case r.Float64() < 0.65:
		case len(reservedIDs) < 4:
			reservedIDs, reservedRanks = append(reservedIDs, i), append(reservedRanks, 8)
		default:
			caps[i] = 8
			cand = append(cand, i)
		}
		if i%64 == 0 {
			changed = append(changed, i)
		}
	}
	calls := 2000
	if e.toy {
		calls = 20
	}
	var dst alloc.CostModel
	var sc alloc.AllocScratch
	dec := model
	perCall := func(f func()) float64 {
		return 1000 * timeMs(func() {
			for i := 0; i < calls; i++ {
				f()
			}
		}) / float64(calls)
	}

	ok := true
	m["alloc.charge_ranks.us_per_call"] = perCall(func() {
		d, charged := model.ChargeRanksAt(reservedIDs, reservedRanks, cand, &dst)
		ok = ok && charged
		dec = d
	})
	if !ok {
		return fmt.Errorf("ChargeRanksAt refused the synthetic model")
	}
	// Seed Algorithm 1 at the 8 cheapest free nodes, as the overlay does.
	starts := append([]int(nil), cand...)
	sort.SliceStable(starts, func(a, b int) bool { return dec.CLUnit[starts[a]] < dec.CLUnit[starts[b]] })
	starts = starts[:8]
	m["alloc.constrained.us_per_call"] = perCall(func() {
		ca, cerr := alloc.NetLoadAware{}.AllocateConstrained(dec, req, caps, starts, &sc)
		if cerr != nil || math.IsNaN(ca.TotalLoad) {
			ok, err = false, cerr
		}
	})
	if !ok {
		return fmt.Errorf("AllocateConstrained on the synthetic model: %v", err)
	}
	m["alloc.refresh_attrs.us_per_call"] = perCall(func() { ok = ok && model.RefreshAttrs(snap, changed) })
	if !ok {
		return fmt.Errorf("RefreshAttrs refused the synthetic model")
	}
	return nil
}

// miniMDRig runs the paper's miniMD strong-scaling comparison (quick
// grid) once per round, on a fresh session each time.
type miniMDRig struct {
	cycle
	cfgs [subSeeds]harness.ScalingConfig
	gain float64
}

func buildMiniMD(e *env) (rig, error) {
	r := &miniMDRig{}
	for k := range r.cfgs {
		r.cfgs[k] = harness.QuickScalingConfig(harness.PaperMiniMDConfig(subSeed(e.seed, k)))
	}
	// Warm-up (and the toy size): one cell, one repeat.
	warm := r.cfgs[0]
	warm.Procs, warm.Sizes, warm.Repeats = warm.Procs[:1], warm.Sizes[:1], 1
	if e.toy {
		for k := range r.cfgs {
			warm.Seed = r.cfgs[k].Seed
			r.cfgs[k] = warm
		}
	}
	if _, err := harness.RunScaling(warm); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *miniMDRig) close() {}

func (r *miniMDRig) round(rs *roundStats) {
	k := r.next()
	cfg := r.cfgs[k]
	t0 := time.Now()
	data, err := harness.RunScaling(cfg)
	wall := time.Since(t0)
	rs.attempted++
	cells := len(cfg.Procs) * len(cfg.Sizes)
	rs.ops += cells
	if err != nil || len(data.Cells) != cells {
		rs.failed++
		return
	}
	// Every policy's mean run time in every cell, to the last bit: the
	// round is deterministic, so a later round on the same input must
	// give the same.
	digest := ""
	for _, c := range data.Cells {
		pols := make([]string, 0, len(c.Mean))
		for p := range c.Mean {
			pols = append(pols, p)
		}
		sort.Strings(pols)
		for _, p := range pols {
			if !(c.Mean[p] > 0) {
				rs.failed++
				return
			}
			digest += fmt.Sprintf("%d/%d/%s=%x;", c.Procs, c.Size, p, math.Float64bits(c.Mean[p]))
		}
	}
	first, same := r.repeat(k, digest)
	if !same {
		rs.failed++
		return
	}
	if first && k == 0 {
		r.gain = data.Gains().Rows["random"].Mean
	}
	rs.opMs = append(rs.opMs, float64(wall)/1e6)
	rs.work += float64(cells)
	rs.workWall += wall
}

func (r *miniMDRig) quality(m map[string]float64) { m["quality.gain_vs_random_pct"] = r.gain }

func (r *miniMDRig) ladder(m map[string]float64) error {
	var rs roundStats
	r.round(&rs)
	if rs.failed > 0 || rs.workWall <= 0 {
		return fmt.Errorf("scaling round failed its checks")
	}
	m["harness.scaling.cells_per_s"] = rs.work / rs.workWall.Seconds()
	return nil
}
