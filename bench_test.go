package nlarm

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (reduced sizes so a full -bench=. pass stays in the
// minutes range; run cmd/nlarm-experiments for the full-scale artifacts),
// plus micro-benchmarks for the allocation algorithm itself, which the
// paper claims runs in ~1-2 ms ("practically nil overhead", §3.3.2).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/harness"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
	"nlarm/internal/sim"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
	"nlarm/internal/tune"
	"nlarm/internal/world"
)

// BenchmarkFigure1ResourceTraces regenerates Figure 1 (node resource-usage
// variation over time on the shared cluster).
func BenchmarkFigure1ResourceTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure1(uint64(i), 6, 20, 5*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2BandwidthMatrix regenerates Figure 2 (P2P bandwidth
// heatmap and per-pair variation over time).
func BenchmarkFigure2BandwidthMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure2(uint64(i), 30, 3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScaling runs a reduced strong-scaling comparison and reports the
// headline gain as a custom metric.
func benchScaling(b *testing.B, cfg harness.ScalingConfig) {
	b.Helper()
	var lastGain float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		data, err := harness.RunScaling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := data.Gains().Rows["random"]; ok {
			lastGain = s.Mean
		}
	}
	b.ReportMetric(lastGain, "gain%-vs-random")
}

// BenchmarkFigure4MiniMDScaling regenerates Figure 4 (miniMD strong
// scaling under the four allocation policies) at reduced size.
func BenchmarkFigure4MiniMDScaling(b *testing.B) {
	benchScaling(b, harness.QuickScalingConfig(harness.PaperMiniMDConfig(1)))
}

// BenchmarkFigure5LoadPerCore regenerates Figure 5 (average CPU load per
// logical core of the allocated groups) from a reduced miniMD run.
func BenchmarkFigure5LoadPerCore(b *testing.B) {
	cfg := harness.QuickScalingConfig(harness.PaperMiniMDConfig(2))
	var nlaLoad float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		data, err := harness.RunScaling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nlaLoad = data.LoadPerCore()[harness.NLAName]
	}
	b.ReportMetric(nlaLoad, "nla-load/core")
}

// BenchmarkTable2MiniMDGains regenerates Table 2 (miniMD percentage gains
// of the network-and-load-aware policy).
func BenchmarkTable2MiniMDGains(b *testing.B) {
	benchScaling(b, harness.QuickScalingConfig(harness.PaperMiniMDConfig(3)))
}

// BenchmarkFigure6MiniFEScaling regenerates Figure 6 (miniFE strong
// scaling) at reduced size.
func BenchmarkFigure6MiniFEScaling(b *testing.B) {
	benchScaling(b, harness.QuickScalingConfig(harness.PaperMiniFEConfig(4)))
}

// BenchmarkTable3MiniFEGains regenerates Table 3 (miniFE percentage
// gains).
func BenchmarkTable3MiniFEGains(b *testing.B) {
	benchScaling(b, harness.QuickScalingConfig(harness.PaperMiniFEConfig(5)))
}

// BenchmarkTable4Figure7Analysis regenerates the §5.3 allocation analysis
// (Table 4 group states and Figure 7's cluster snapshot).
func BenchmarkTable4Figure7Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AllocationAnalysis(uint64(i+1), 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueBackfill runs the FIFO-vs-backfill queue experiment — 64
// scripted jobs (hog + wide head + 62 walltimed shorts) on the 32-node
// testbed — and reports both disciplines' mean waits. The improvement
// itself is asserted by harness.TestBackfillExperimentImproves; here the
// numbers are archived alongside the other hot-path benchmarks.
func BenchmarkQueueBackfill(b *testing.B) {
	var fifoWait, bfWait float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunBackfill(harness.BackfillConfig{Seed: uint64(i + 1), Shorts: 62})
		if err != nil {
			b.Fatal(err)
		}
		fifoWait = res.Modes[0].MeanWaitSec
		bfWait = res.Modes[1].MeanWaitSec
	}
	b.ReportMetric(fifoWait, "fifo-wait-s")
	b.ReportMetric(bfWait, "backfill-wait-s")
}

// --- Algorithm micro-benchmarks ---------------------------------------------

// benchSnapshot builds a fully-monitored 60-node snapshot once.
func benchSnapshot(b *testing.B) *Simulation {
	b.Helper()
	sim, err := NewSimulation(SimulationConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sim.Close)
	sim.WarmUp()
	return sim
}

// BenchmarkNetLoadAwareAllocate measures the full heuristic (Algorithms
// 1+2 over 60 nodes and 1770 measured pairs). The paper reports ~1-2 ms.
func BenchmarkNetLoadAwareAllocate(b *testing.B) {
	sim := benchSnapshot(b)
	snap, err := monitor.ReadSnapshot(sim.Harness.Store, sim.Now())
	if err != nil {
		b.Fatal(err)
	}
	req := alloc.Request{Procs: 32, PPN: 4, Alpha: 0.3, Beta: 0.7}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (alloc.NetLoadAware{}).Allocate(snap, req, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselinePolicies measures the three baseline allocators on the
// same snapshot.
func BenchmarkBaselinePolicies(b *testing.B) {
	sim := benchSnapshot(b)
	snap, err := monitor.ReadSnapshot(sim.Harness.Store, sim.Now())
	if err != nil {
		b.Fatal(err)
	}
	req := alloc.Request{Procs: 32, PPN: 4, Alpha: 0.3, Beta: 0.7}
	for _, pol := range []alloc.Policy{alloc.Random{}, alloc.Sequential{}, alloc.LoadAware{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := pol.Allocate(snap, req, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorSweep measures one full LatencyD+BandwidthD sweep of
// the 60-node cluster (the monitoring cost the paper keeps off the
// critical path by amortizing over 1- and 5-minute periods).
func BenchmarkMonitorSweep(b *testing.B) {
	sim := benchSnapshot(b)
	h := sim.Harness
	pr := &monitor.WorldProber{W: h.World}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, round := range monitor.Rounds(livehostIDs(60)) {
			for _, p := range round {
				if _, err := pr.MeasureLatency(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
				if _, _, err := pr.MeasureBandwidth(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func livehostIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// denseBenchSnapshot builds a fully-measured synthetic snapshot of n nodes
// with varied loads and pairwise measurements, sized for allocator scaling
// benchmarks (no simulator behind it, so 256 nodes builds instantly).
func denseBenchSnapshot(n int, seed uint64) *metrics.Snapshot {
	r := rng.New(seed)
	taken := time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)
	snap := &metrics.Snapshot{
		Taken:     taken,
		Nodes:     make(map[int]metrics.NodeAttrs, n),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency, n*n/2),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth, n*n/2),
	}
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		load := r.Range(0, 8)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: "bench", Timestamp: taken,
			Cores: 12, FreqGHz: 4.6, TotalMemMB: 16384,
		}
		na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
		na.CPUUtilPct = stats.Windowed{M1: load * 8, M5: load * 8, M15: load * 8}
		na.FlowRateBps = stats.Windowed{M1: r.Range(1e5, 1e8), M5: 1e6, M15: 1e6}
		na.AvailMemMB = stats.Windowed{M1: r.Range(2000, 15000), M5: 12000, M15: 12000}
		snap.Nodes[i] = na
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			key := metrics.Pair(i, j)
			lat := time.Duration(80+r.Intn(400)) * time.Microsecond
			snap.Latency[key] = metrics.PairLatency{
				U: i, V: j, Timestamp: taken, Last: lat, Mean1: lat,
			}
			snap.Bandwidth[key] = metrics.PairBandwidth{
				U: i, V: j, Timestamp: taken,
				AvailBps: r.Range(10e6, 120e6), PeakBps: 125e6,
			}
		}
	}
	return snap
}

// benchmarkAllocateN measures the full net-load-aware heuristic at cluster
// size n (the allocator hot path the paper prices at ~1-2 ms, §3.3.2).
func benchmarkAllocateN(b *testing.B, n int) {
	snap := denseBenchSnapshot(n, 42)
	req := alloc.Request{Procs: n / 2, PPN: 2, Alpha: 0.3, Beta: 0.7}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (alloc.NetLoadAware{}).Allocate(snap, req, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocate32Nodes(b *testing.B)  { benchmarkAllocateN(b, 32) }
func BenchmarkAllocate128Nodes(b *testing.B) { benchmarkAllocateN(b, 128) }
func BenchmarkAllocate256Nodes(b *testing.B) { benchmarkAllocateN(b, 256) }

// shardedBenchSnapshot builds a topology-structured snapshot of nShards
// shards of shardSize nodes each: full-mesh measurements inside every
// shard plus a few measured boundary pairs per shard pair. A full mesh
// at 4096 nodes would need ~8.4M pair records (gigabytes of map
// entries); the sampled shape mirrors what the sweeping monitors
// actually measure on a fat tree, and it is the shape the hierarchical
// model's O(Σ sᵢ² + samples) construction is built for.
func shardedBenchSnapshot(nShards, shardSize int, seed uint64) (*metrics.Snapshot, [][]int) {
	r := rng.New(seed)
	n := nShards * shardSize
	taken := time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)
	snap := &metrics.Snapshot{
		Taken:     taken,
		Nodes:     make(map[int]metrics.NodeAttrs, n),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	groups := make([][]int, nShards)
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		groups[i/shardSize] = append(groups[i/shardSize], i)
		load := r.Range(0, 8)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: "bench", Timestamp: taken,
			Cores: 12, FreqGHz: 4.6, TotalMemMB: 16384,
		}
		na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
		na.CPUUtilPct = stats.Windowed{M1: load * 8, M5: load * 8, M15: load * 8}
		na.FlowRateBps = stats.Windowed{M1: r.Range(1e5, 1e8), M5: 1e6, M15: 1e6}
		na.AvailMemMB = stats.Windowed{M1: r.Range(2000, 15000), M5: 12000, M15: 12000}
		snap.Nodes[i] = na
	}
	measure := func(i, j int, latUS, latSpreadUS int, availLo, availHi float64) {
		key := metrics.Pair(i, j)
		lat := time.Duration(latUS+r.Intn(latSpreadUS)) * time.Microsecond
		snap.Latency[key] = metrics.PairLatency{U: i, V: j, Timestamp: taken, Last: lat, Mean1: lat}
		snap.Bandwidth[key] = metrics.PairBandwidth{
			U: i, V: j, Timestamp: taken,
			AvailBps: r.Range(availLo, availHi), PeakBps: 125e6,
		}
	}
	for _, members := range groups {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				measure(members[a], members[b], 50, 100, 80e6, 120e6)
			}
		}
	}
	for sa := 0; sa < nShards; sa++ {
		for sb := sa + 1; sb < nShards; sb++ {
			for k := 0; k < 4; k++ {
				measure(groups[sa][k%shardSize], groups[sb][(k*7)%shardSize], 300, 600, 10e6, 60e6)
			}
		}
	}
	return snap, groups
}

// BenchmarkAllocate1024Nodes races the exhaustive dense path against the
// topology-sharded hierarchical path on the same 16×64-node snapshot,
// model construction included — the broker rebuilds the model whenever
// the monitoring view changes, so construction is part of the hot path.
func BenchmarkAllocate1024Nodes(b *testing.B) {
	snap, groups := shardedBenchSnapshot(16, 64, 42)
	req, err := alloc.Request{Procs: 64, PPN: 2, Alpha: 0.3, Beta: 0.7}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (alloc.NetLoadAware{}).Allocate(snap, req, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		opts := alloc.ShardOptions{Plan: alloc.NewShardPlan(groups, "bench"), Threshold: alloc.DefaultShardThreshold}
		r := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := alloc.NewCostModelSharded(snap, req.Weights, req.UseForecast, opts)
			if _, err := (alloc.NetLoadAware{}).AllocateModel(m, req, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAllocate4096Nodes measures the sharded allocator at fleet
// scale (64 shards × 64 nodes), model construction included. The dense
// path is omitted: its 4096² matrix alone is ~134 MB and one allocation
// takes seconds — the wall this PR removes.
func BenchmarkAllocate4096Nodes(b *testing.B) {
	snap, groups := shardedBenchSnapshot(64, 64, 42)
	req, err := alloc.Request{Procs: 256, PPN: 2, Alpha: 0.3, Beta: 0.7}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	opts := alloc.ShardOptions{Plan: alloc.NewShardPlan(groups, "bench"), Threshold: alloc.DefaultShardThreshold}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := alloc.NewCostModelSharded(snap, req.Weights, req.UseForecast, opts)
		if _, err := (alloc.NetLoadAware{}).AllocateModel(m, req, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerRepeatAllocate measures back-to-back broker requests
// against an unchanged monitoring view — the case the broker's
// fingerprint-keyed cost-model cache exists for. Virtual time is frozen
// between iterations, so every request after the first re-prices nothing
// and the reported cache-hit-ratio should approach 1.
func BenchmarkBrokerRepeatAllocate(b *testing.B) {
	sim := benchSnapshot(b)
	req := AllocRequest{Procs: 32, PPN: 2, Alpha: 0.3, Beta: 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Allocate(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses := sim.Harness.Broker.ModelCacheStats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-ratio")
	}
}

// BenchmarkSnapshotRefreshCold measures a from-nothing snapshot-cache
// refresh of the fully-monitored 60-node store — the same work as a full
// ReadSnapshot plus generation bookkeeping.
func BenchmarkSnapshotRefreshCold(b *testing.B) {
	sim := benchSnapshot(b)
	now := sim.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := monitor.NewSnapshotCache(sim.Harness.VStore, nil, nil)
		if _, err := cache.Refresh(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRefreshWarm measures the delta path: each iteration
// republishes 3 of the 60 node-state keys and refreshes, so the cache
// re-reads only the changed keys and patches the fingerprint in place.
func BenchmarkSnapshotRefreshWarm(b *testing.B) {
	sim := benchSnapshot(b)
	vst := sim.Harness.VStore
	cache := monitor.NewSnapshotCache(vst, nil, nil)
	now := sim.Now()
	if _, err := cache.Refresh(now); err != nil {
		b.Fatal(err)
	}
	keys := []string{
		monitor.KeyNodeStatePrefix + "3",
		monitor.KeyNodeStatePrefix + "17",
		monitor.KeyNodeStatePrefix + "42",
	}
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := vst.Get(k)
		if err != nil {
			b.Fatal(err)
		}
		vals[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			if err := vst.Put(k, vals[j]); err != nil {
				b.Fatal(err)
			}
		}
		r, err := cache.Refresh(now)
		if err != nil {
			b.Fatal(err)
		}
		if r.KeysReread != len(keys) {
			b.Fatalf("warm refresh reread %d keys, want %d", r.KeysReread, len(keys))
		}
	}
}

// BenchmarkSimulatedDayOfMonitoring measures how fast the whole stack
// (world + all daemons) advances virtual time: one benchmark iteration is
// one simulated hour of the 60-node cluster.
func BenchmarkSimulatedDayOfMonitoring(b *testing.B) {
	sim := benchSnapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(time.Hour)
	}
}

// BenchmarkSimMillionJobs is the capacity-simulator acceptance gate: one
// iteration pushes one million generated jobs through the EASY-backfill
// event loop on a 1024-node cluster — weeks of virtual traffic that must
// finish in well under a minute of wall time with a stable trace digest.
func BenchmarkSimMillionJobs(b *testing.B) {
	cfg := sim.MillionJobConfig(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunScenario(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed+res.Rejected != res.Jobs {
			b.Fatalf("lost jobs: %d completed + %d rejected of %d", res.Completed, res.Rejected, res.Jobs)
		}
		b.ReportMetric(res.MeanWaitSec, "meanwait-s")
		b.ReportMetric(float64(res.Completed)/res.WallTime.Seconds(), "jobs/s")
	}
}

// BenchmarkSimPolicy1024 measures the policy-fidelity simulator: every
// job start placed by Algorithms 1-2 over one in-place-refreshed cost
// model on a 1024-node cluster. The capacity sub-benchmark runs the
// identical scenario with placement off, so jobs/s(capacity) over
// jobs/s(policy) is exactly the cost of full placement fidelity.
func BenchmarkSimPolicy1024(b *testing.B) {
	base := sim.ScenarioConfig{
		Seed:         4,
		Nodes:        1024,
		CoresPerNode: 8,
		Workload:     sim.ScaledWorkload(20_000, 1024, 0.65),
		Discipline:   sim.EASY,
	}
	for _, mode := range []string{"capacity", "policy"} {
		cfg := base
		if mode == "policy" {
			cfg.Policy = &sim.PolicyConfig{}
		}
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var digest string
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				if digest == "" {
					digest = res.Digest
				} else if res.Digest != digest {
					b.Fatalf("digest drifted across iterations")
				}
				if mode == "policy" && (res.Policy == nil || res.Policy.ModelBuilds != 1) {
					b.Fatalf("policy run rebuilt its model: %+v", res.Policy)
				}
				b.ReportMetric(float64(res.Completed)/res.WallTime.Seconds(), "jobs/s")
			}
		})
	}
}

// BenchmarkSimSweep fans a fixed 8-config sweep across 1, 2, 4, and 8
// workers, asserting the aggregate digest never moves. On multi-core
// hosts the jobs/s metric exposes the scaling curve; on single-core CI
// the sub-benchmarks coincide and only the determinism assertion bites.
func BenchmarkSimSweep(b *testing.B) {
	var cfgs []sim.ScenarioConfig
	for seed := uint64(1); seed <= 8; seed++ {
		cfgs = append(cfgs, sim.ScenarioConfig{
			Seed:         seed,
			Nodes:        256,
			CoresPerNode: 8,
			Workload:     sim.ScaledWorkload(10_000, 256, 0.65),
			Discipline:   sim.EASY,
		})
	}
	var digest string
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw, err := sim.RunMany(cfgs, workers)
				if err != nil {
					b.Fatal(err)
				}
				if digest == "" {
					digest = sw.Digest
				} else if sw.Digest != digest {
					b.Fatalf("sweep digest moved with %d workers", workers)
				}
				jobs := 0
				for _, res := range sw.Results {
					jobs += res.Completed
				}
				b.ReportMetric(float64(jobs)/sw.WallTime.Seconds(), "jobs/s")
			}
		})
	}
}

// benchBrokerServer wires a monitored 8-node stack (the broker package's
// standard test rig) behind a TCP server. Virtual time is frozen during
// the measurement, so every request prices against one warm snapshot
// generation — the benchmark then isolates front-door throughput, not
// monitor churn.
func benchBrokerServer(b *testing.B, seed uint64, opts broker.ServerOptions) *broker.Server {
	b.Helper()
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)
	sched := simtime.NewScheduler(start)
	w := world.New(cl, world.Config{Seed: seed, StepSize: time.Second}, start)
	w.Attach(sched)
	st := store.Version(store.NewMem()) // daemons and broker share it, as in production
	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, st, monitor.Config{
		NodeStatePeriod: 2 * time.Second,
		LivehostsPeriod: 2 * time.Second,
		LatencyPeriod:   5 * time.Second,
		BandwidthPeriod: 10 * time.Second,
	})
	if err := mgr.Start(sched); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mgr.Stop)
	sched.RunFor(30 * time.Second)
	srv, err := broker.NewServerOpts(broker.New(st, sched, broker.Config{Seed: seed}), nil, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchBrokerRequests are the request shapes the concurrent benchmark
// cycles through — a handful of distinct shapes, the way a production
// front door sees bursts of near-identical asks, so batches both
// exercise and profit from in-batch deduplication.
var benchBrokerRequests = [4]broker.Request{
	{Procs: 8, PPN: 4, Force: true},
	{Procs: 4, PPN: 4, Force: true},
	{Procs: 8, PPN: 2, Alpha: 0.3, Beta: 0.7, Force: true},
	{Procs: 16, PPN: 4, Force: true},
}

// benchmarkBrokerOneShot is the baseline: every logical client owns one
// connection and serializes whole round trips over it — the pre-batching
// deployment model.
func benchmarkBrokerOneShot(b *testing.B, clients int) {
	srv := benchBrokerServer(b, 42, broker.ServerOptions{})
	defer srv.Close()
	conns := make([]*broker.Client, clients)
	for i := range conns {
		c, err := broker.Dial(srv.Addr(), 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	runBrokerClients(b, clients, func(worker int, req broker.Request) error {
		_, err := conns[worker].Allocate(req)
		return err
	})
}

// benchmarkBrokerPipelined is the batched front door: the same logical
// clients share a small pool of pipelined connections into a batching,
// admission-controlled server.
func benchmarkBrokerPipelined(b *testing.B, clients int) {
	srv := benchBrokerServer(b, 42, broker.ServerOptions{
		MaxInflight: -1,
		Batching: &broker.BatcherOptions{
			MaxBatch:  1024,
			Admission: broker.AdmissionConfig{QueueDepth: 1 << 20},
		},
	})
	defer srv.Close()
	pool := broker.NewPool(srv.Addr(), broker.PoolOptions{
		Size:   4,
		Client: broker.ClientOptions{MaxInflight: 2048},
	})
	defer pool.Close()
	if _, err := pool.Allocate(benchBrokerRequests[0]); err != nil { // warm the dials
		b.Fatal(err)
	}
	runBrokerClients(b, clients, func(_ int, req broker.Request) error {
		_, err := pool.Allocate(req)
		return err
	})
}

// runBrokerClients drives b.N allocations through `clients` concurrent
// workers and reports sustained allocations per second.
func runBrokerClients(b *testing.B, clients int, call func(worker int, req broker.Request) error) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	b.ReportAllocs()
	b.ResetTimer()
	for wkr := 0; wkr < clients; wkr++ {
		wkr := wkr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				if err := call(wkr, benchBrokerRequests[n%4]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if err := firstErr.Load(); err != nil {
		b.Fatal(err)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "alloc/s")
	}
}

// BenchmarkBrokerConcurrent compares the one-shot baseline (a connection
// per client, one request per round trip) against the batched pipelined
// front door at 128, 512, and 1024 concurrent clients. Recorded numbers
// live in BENCH_alloc.json (PR 8's >=5x bar at 512 clients was met
// against a one-shot side that re-read the whole store per request; on
// the delta read path the gap is ~2x).
func BenchmarkBrokerConcurrent(b *testing.B) {
	for _, clients := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("oneshot-%d", clients), func(b *testing.B) {
			benchmarkBrokerOneShot(b, clients)
		})
		b.Run(fmt.Sprintf("pipelined-%d", clients), func(b *testing.B) {
			benchmarkBrokerPipelined(b, clients)
		})
	}
}

// BenchmarkCounterfactualRescore measures the offline half of the regret
// pipeline: re-scoring a realistic retained decision trace (64 live
// broker decisions, k=4 counterfactuals each) under the decision's own
// α/β. The broker-side retention cost rides the allocate benchmarks; the
// rescore itself must stay near-alloc-free — the CI allocs/op guard pins
// it to the ring copy.
func BenchmarkCounterfactualRescore(b *testing.B) {
	s, err := harness.NewSession(harness.SessionConfig{
		Seed:   42,
		Broker: broker.Config{CounterfactualK: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	s.WarmUp(harness.DefaultWarmUp)
	r := rng.New(7)
	weights := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		procs := 4 + 2*r.Intn(5)
		if _, err := s.Broker.Allocate(broker.Request{Procs: procs, PPN: 2, Force: true}); err != nil {
			b.Fatal(err)
		}
		weights = append(weights, 1+r.Float64()*100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep tune.RegretReport
	for i := 0; i < b.N; i++ {
		rep = tune.Regret(s.Broker.Decisions(0), weights)
	}
	b.StopTimer()
	if rep.Evaluated == 0 {
		b.Fatal("rescored trace evaluated no decisions")
	}
	b.ReportMetric(rep.PositiveShare, "positive-share")
}
