package main

// Seeds. BENCHMARK.json may hold only the contract's keys, so the
// default and the held-out seed are recorded here and in README.md.
const (
	defaultSeed = 42
	heldOutSeed = 1729
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
)

// metricSpec names one reported number. bound is the share by which an
// end-to-end metric may get worse before -repeat-check (and the
// driver) call it a regression; per-layer metrics carry none.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// endToEnd is printed by every workload with tracing off. What the
// operation and the unit of work are is fixed per workload (see
// workloads below and README.md); the names are shared because the
// driver requires one metric set for all workloads.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"heap_kb_per_op", "kB", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"retained_heap_mb", "MB", "lower", 0.15},
}

// perLayer is printed by every workload with tracing on; a layer the
// workload does not touch reads 0.
var perLayer = []metricSpec{
	{"store.put.count", "count", "lower", 0},
	{"store.put.busy_ms", "ms", "lower", 0},
	{"store.put.bytes", "bytes", "lower", 0},
	{"store.get.count", "count", "lower", 0},
	{"store.get.busy_ms", "ms", "lower", 0},
	{"store.list.count", "count", "lower", 0},
	{"store.generations.busy_ms", "ms", "lower", 0},
	{"monitor.nodestated.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"monitor.livehostsd.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"monitor.latencyd.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"monitor.bandwidthd.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"monitor.central.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"monitor.probes_per_vmin", "1/vmin", "lower", 0},
	{"monitor.puts_per_vmin", "1/vmin", "lower", 0},
	{"monitor.snapcache.refresh_ms", "ms", "lower", 0},
	{"monitor.snapcache.keys_reread", "count", "lower", 0},
	{"monitor.snapcache.cold_ms", "ms", "lower", 0},
	{"world.step.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"world.probe.busy_ms_per_vmin", "ms/vmin", "lower", 0},
	{"metrics.snapshot.clone_ms", "ms", "lower", 0},
	{"metrics.snapshot.fingerprint_ms", "ms", "lower", 0},
	{"alloc.model.build_ms", "ms", "lower", 0},
	{"alloc.model.update_ms", "ms", "lower", 0},
	{"alloc.alg12_ms", "ms", "lower", 0},
	{"alloc.alg12.par_speedup", "x", "higher", 0},
	{"alloc.constrained.us_per_call", "us", "lower", 0},
	{"alloc.charge_ranks.us_per_call", "us", "lower", 0},
	{"alloc.refresh_attrs.us_per_call", "us", "lower", 0},
	{"broker.allocate.fresh_ms", "ms", "lower", 0},
	{"broker.allocate.warm_ms", "ms", "lower", 0},
	{"broker.core.fresh_self_ms", "ms", "lower", 0},
	{"broker.core.warm_self_ms", "ms", "lower", 0},
	{"broker.batcher.rtt_ms", "ms", "lower", 0},
	{"broker.batcher.self_ms", "ms", "lower", 0},
	{"broker.batcher.burst256_us_per_req", "us", "lower", 0},
	{"broker.wire.rtt_ms", "ms", "lower", 0},
	{"broker.wire.self_ms", "ms", "lower", 0},
	{"broker.wire.resp_bytes", "bytes", "lower", 0},
	{"broker.modelcache.hit_ratio", "ratio", "higher", 0},
	{"broker.model.update.incremental", "count", "higher", 0},
	{"broker.model.update.full", "count", "lower", 0},
	{"broker.snapshot.refresh.shared", "count", "higher", 0},
	{"broker.alloc.shard.spills", "count", "lower", 0},
	{"client.alloc_fresh_p50_ms", "ms", "lower", 0},
	{"client.alloc_fresh_p90_ms", "ms", "lower", 0},
	{"client.alloc_fresh_p99_ms", "ms", "lower", 0},
	{"client.alloc_warm_p50_ms", "ms", "lower", 0},
	{"client.alloc_warm_p90_ms", "ms", "lower", 0},
	{"client.alloc_warm_p99_ms", "ms", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"sim.loop.us_per_job", "us", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.trace.bytes_per_job", "bytes", "lower", 0},
	{"loadgen.gen_us_per_job", "us", "lower", 0},
	{"sim.policy.us_per_job", "us", "lower", 0},
	{"sim.policy.model_builds", "count", "lower", 0},
	{"sim.policy.model_refreshes", "count", "lower", 0},
	{"sim.policy.charged_decisions", "count", "higher", 0},
	{"sim.policy.fallback_decisions", "count", "lower", 0},
	{"sim.sweep.par_speedup", "x", "higher", 0},
	{"harness.scaling.cells_per_s", "1/s", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"quality.decision_cost", "cost", "lower", 0},
	{"quality.sim_mean_wait_s", "s", "lower", 0},
	{"quality.gain_vs_random_pct", "%", "higher", 0},
}

// workload is one fixed set of inputs. build makes the rig from the
// seed and runs its warm-up; how long that takes is setup_s.
type workload struct {
	name string
	// why is BENCHMARK.json's one-line reason for the workload.
	why string
	// op and work say what op_p50_ms times and what work_per_s counts.
	op, work string
	build    func(e *env) (rig, error)
}

var workloads = []workload{
	{
		name:  "paper60-live",
		why:   "60-node paper rig, daemons at paper cadence, TCP clients: each request prices a new generation (store, delta refresh, last-good copy, model update, Alg 1-2, wire). op=fresh allocate, work=virtual s.",
		op:    "fresh allocate over TCP (first request on a new generation)",
		work:  "virtual seconds advanced per wall second in Sched.RunFor",
		build: func(e *env) (rig, error) { return buildPaper(e, true) },
	},
	{
		name:  "paper60-frozen",
		why:   "Same rig, virtual time frozen: snapshot and model caches always hit, so wire, batcher and decision record dominate; bypasses snapshot/model optimisations. op=warm allocate, work=allocations.",
		op:    "warm allocate over TCP (unchanged generation)",
		work:  "allocations per second of allocate-phase wall, all clients",
		build: func(e *env) (rig, error) { return buildPaper(e, false) },
	},
	{
		name:  "dense256-churn",
		why:   "In-process broker, 256 nodes, full-mesh matrices, 8 republishes per step: O(n^2) snapshot handling and the dense generate kernel do the work, wire none. op=fresh allocate, work=warm allocations.",
		op:    "fresh in-process Broker.Allocate (after 8 republishes)",
		work:  "warm allocations per second of warm-allocate wall",
		build: func(e *env) (rig, error) { return buildSynth(e, false) },
	},
	{
		name:  "shard1024-churn",
		why:   "Same layers on 16x64-node shards, sampled boundary pairs: hierarchical model, scoutShard/generateSharded; a dense-path gain that costs the sharded path shows. op=fresh allocate, work=warm allocations.",
		op:    "fresh in-process Broker.Allocate (after 32 republishes)",
		work:  "warm allocations per second of warm-allocate wall",
		build: func(e *env) (rig, error) { return buildSynth(e, true) },
	},
	{
		name:  "sim-capacity",
		why:   "sim.RunScenario, 1024x8 cores, 250k jobs, EASY, no policy: event loop, loadgen, trace serialisation and digest do the work; alloc does none. op=one scenario, work=completed jobs.",
		op:    "one RunScenario",
		work:  "completed jobs per second",
		build: func(e *env) (rig, error) { return buildSim(e, false) },
	},
	{
		name:  "sim-policy",
		why:   "Same scenario shape, 25k jobs placed by Algorithms 1-2: AllocateConstrained, ChargeRanksAt and RefreshAttrs dominate (the gap to capacity fidelity). op=one scenario, work=completed jobs.",
		op:    "one RunScenario",
		work:  "completed jobs per second",
		build: func(e *env) (rig, error) { return buildSim(e, true) },
	},
	{
		name:  "paper60-minimd",
		why:   "harness.RunScaling, quick miniMD grid: the paper's own end metric (simulated run time, net-load-aware vs random); deterministic, so a faster but worse placement is caught. op=one round, work=cells.",
		op:    "one RunScaling round",
		work:  "scaling cells per second",
		build: buildMiniMD,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
