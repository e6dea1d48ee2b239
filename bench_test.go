package nlarm

// Benchmark harness: one sub-benchmark per experiment artifact (-quick
// sizes so a full -bench=. pass stays in the minutes range; run
// cmd/nlarm-experiments for the full-scale artifacts), plus the three
// shapes bench/ does not measure: the queue experiment, the 4096-node
// sharded allocate and the counterfactual rescore. Every
// other hot path — allocate at 60 to 1024 nodes, the broker front door,
// snapshot refresh, the simulators — is measured by bench/ on live,
// churning rigs with checked outputs (bash bench/run.sh).

import (
	"strings"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/harness"
	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
	"nlarm/internal/tune"
)

// BenchmarkArtifacts regenerates every harness.Artifacts entry — each
// table and figure of the paper's evaluation section and the extension
// experiments — at -quick size, one sub-benchmark per entry and a fresh
// seed per iteration.
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range harness.Artifacts {
		b.Run(strings.Join(a.Names, "_"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := harness.DefaultOptions(uint64(i + 1))
				o.Quick = true
				if _, err := a.Run(harness.NewRuns(o)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueueBackfill runs the FIFO-vs-backfill queue experiment — 64
// scripted jobs (hog + wide head + 62 walltimed shorts) on the 32-node
// testbed — and reports both disciplines' mean waits. The improvement
// itself is asserted by harness.TestBackfillExperimentImproves; here the
// numbers are printed for the record.
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

// BenchmarkAllocate4096Nodes measures the sharded allocator at fleet
// scale (64 shards × 64 nodes), model construction included. The dense
// path is omitted: its 4096² matrix alone is ~134 MB and one allocation
// takes seconds — the wall the sharded model removes.
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

// BenchmarkCounterfactualRescore measures the offline half of the regret
// pipeline: re-scoring a realistic retained decision trace (64 live
// broker decisions, k=4 counterfactuals each) under the decision's own
// α/β. The rescore itself must stay near-alloc-free — the CI allocs/op
// guard pins it to the ring copy.
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
