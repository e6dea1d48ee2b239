package alloc

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// Metamorphic twins: each transforms a snapshot so that Equations 1–4
// predict the answer exactly, and holds the allocator to that
// prediction. They reach what the oracle does not — the sharded path
// across shards — for the price of one transform each.

// twinInput is one seeded hostile random snapshot with a request, and a
// random shard label per monitored node for the relabel twin's plan.
type twinInput struct {
	seed   uint64
	snap   *metrics.Snapshot
	req    Request
	labels map[int]int
}

// twinInputs are the scale and relabel twins' inputs: 60 snapshots of
// 2–40 live hosts, requests from one process to four per host.
func twinInputs(t *testing.T) []twinInput {
	var ins []twinInput
	alphas := []float64{0, 0.3, 0.5, 0.7, 1}
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed * 104729)
		n := 2 + r.Intn(39)
		in := twinInput{seed: seed, snap: randomSnapshot(r, n, true), labels: map[int]int{}}
		alpha := alphas[int(seed)%len(alphas)]
		req, err := Request{Procs: 1 + r.Intn(4*n), PPN: r.Intn(5), Alpha: alpha, Beta: 1 - alpha}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		in.req = req
		for id := range in.snap.Nodes {
			in.labels[id] = r.Intn(1 + n/6)
		}
		ins = append(ins, in)
	}
	return ins
}

// twinModels are the dense model of snap and the sharded one at
// Threshold 2 / MaxShardSize 8 over plan (hash buckets when nil).
func twinModels(snap *metrics.Snapshot, plan *ShardPlan) []*CostModel {
	return []*CostModel{
		NewCostModel(snap, PaperWeights(), false),
		NewCostModelSharded(snap, PaperWeights(), false, ShardOptions{Threshold: 2, MaxShardSize: 8, Plan: plan}),
	}
}

// checkTwin runs the four paper policies, same rng seed on both sides,
// and net-load-aware's explain winner, on each model of base and its
// twin. The twin's answer must be the base's with every node ID mapped
// by f, and the error outcome the same. It returns how many allocations
// succeeded, so a test can refuse to pass on errors alone.
func checkTwin(t *testing.T, in twinInput, base, twin []*CostModel, f func(int) int) int {
	t.Helper()
	mapIDs := func(nodes []int, procs map[int]int) (mapped []int, out map[int]int) {
		for _, id := range nodes {
			mapped = append(mapped, f(id))
		}
		if procs != nil {
			out = map[int]int{}
		}
		for id, n := range procs {
			out[f(id)] = n
		}
		return mapped, out
	}
	ok := 0
	for k, m := range base {
		for _, p := range PaperPolicies() {
			got, gerr := p.AllocateModel(twin[k], in.req, rng.New(in.seed))
			want, err := p.AllocateModel(m, in.req, rng.New(in.seed))
			want.Nodes, want.Procs = mapIDs(want.Nodes, want.Procs)
			if (gerr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
				t.Errorf("seed %d, sharded=%v, %s:\ntwin %+v (%v)\nwant %+v (%v)", in.seed, m.Sharded(), p.Name(), got, gerr, want, err)
			}
			if err == nil {
				ok++
			}
		}
		got, _, gerr := NetLoadAware{}.AllocateExplainModel(twin[k], in.req)
		want, _, err := NetLoadAware{}.AllocateExplainModel(m, in.req)
		want.Start = f(want.Start)
		want.Nodes, want.Procs = mapIDs(want.Nodes, want.Procs)
		if (gerr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Errorf("seed %d, sharded=%v, explain:\ntwin %+v (%v)\nwant %+v (%v)", in.seed, m.Sharded(), got, gerr, want, err)
		}
	}
	return ok
}

// scaleSnapshot multiplies by 4 every input that Equations 1 and 2
// sum-normalise and Equation 3 does not read: CPU utilisation, flow
// rate and available memory (every window), frequency, total memory,
// users, every latency and both bandwidths. CPU load and cores stay:
// Equation 3 reads them raw.
func scaleSnapshot(snap *metrics.Snapshot) *metrics.Snapshot {
	s := snap.Clone()
	x4 := func(w stats.Windowed) stats.Windowed {
		return stats.Windowed{M1: 4 * w.M1, M5: 4 * w.M5, M15: 4 * w.M15}
	}
	for id, na := range s.Nodes {
		na.CPUUtilPct, na.FlowRateBps, na.AvailMemMB = x4(na.CPUUtilPct), x4(na.FlowRateBps), x4(na.AvailMemMB)
		na.FreqGHz, na.TotalMemMB, na.Users = 4*na.FreqGHz, 4*na.TotalMemMB, 4*na.Users
		s.Nodes[id] = na
	}
	for k, pl := range s.Latency {
		pl.Last, pl.Mean1, pl.Mean5 = 4*pl.Last, 4*pl.Mean1, 4*pl.Mean5
		s.Latency[k] = pl
	}
	for k, pb := range s.Bandwidth {
		pb.AvailBps, pb.PeakBps = 4*pb.AvailBps, 4*pb.PeakBps
		s.Bandwidth[k] = pb
	}
	return s
}

// updatedModels are twinModels(snap, nil) reached through UpdateNodes:
// built with the dynamic attributes of up to four nodes rewritten, then
// updated to snap.
func updatedModels(t *testing.T, snap *metrics.Snapshot, seed uint64) []*CostModel {
	r, pre, ids := rng.New(seed), snap.Clone(), MonitoredLivehosts(snap)
	var changed []int
	for k := min(4, len(ids)); k > 0; k-- {
		changed = append(changed, ids[r.Intn(len(ids))])
		mutateDynamicAttrs(r, pre, changed[len(changed)-1])
	}
	ms := twinModels(pre, nil)
	for k, m := range ms {
		u, ok := m.UpdateNodes(snap, changed)
		if !ok {
			t.Fatalf("seed %d: UpdateNodes refused a dynamic-attribute change", seed)
		}
		ms[k] = u
	}
	return ms
}

// TestScaleTwin: sum-normalisation divides the scale out, and scaling by
// a power of two commutes with IEEE rounding, so every allocation must
// be equal to the bit. The twin's models are reached through
// UpdateNodes. Reservations are left out: the reservation charge reads
// CPU utilisation raw. It catches raw-unit constants, epsilon guards,
// raw and normalised values mixed, and stale sums; not a wrong formula
// applied alike on both sides.
func TestScaleTwin(t *testing.T) {
	ok, total := 0, 0
	for _, in := range twinInputs(t) {
		ok += checkTwin(t, in, twinModels(in.snap, nil), updatedModels(t, scaleSnapshot(in.snap), in.seed),
			func(id int) int { return id })
		total += 8
	}
	if ok*2 < total {
		t.Fatalf("only %d of %d allocations succeeded", ok, total)
	}
}

// relabel is the relabel twin's ID map; it keeps the order of IDs.
func relabel(id int) int { return 3*id + 5 }

// relabelSnapshot maps every node ID of snap, in livehosts, node
// records and pair keys, through relabel.
func relabelSnapshot(snap *metrics.Snapshot) *metrics.Snapshot {
	s := &metrics.Snapshot{Taken: snap.Taken, Nodes: map[int]metrics.NodeAttrs{},
		Latency: map[metrics.PairKey]metrics.PairLatency{}, Bandwidth: map[metrics.PairKey]metrics.PairBandwidth{}}
	for _, id := range snap.Livehosts {
		s.Livehosts = append(s.Livehosts, relabel(id))
	}
	for id, na := range snap.Nodes {
		na.NodeID = relabel(id)
		s.Nodes[na.NodeID] = na
	}
	for _, pl := range snap.Latency {
		pl.U, pl.V = relabel(pl.U), relabel(pl.V)
		s.Latency[metrics.Pair(pl.U, pl.V)] = pl
	}
	for _, pb := range snap.Bandwidth {
		pb.U, pb.V = relabel(pb.U), relabel(pb.V)
		s.Bandwidth[metrics.Pair(pb.U, pb.V)] = pb
	}
	return s
}

// labelPlan groups the nodes of labels by label, each ID mapped by f.
func labelPlan(labels map[int]int, f func(int) int) *ShardPlan {
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var groups [][]int
	for _, id := range ids {
		for len(groups) <= labels[id] {
			groups = append(groups, nil)
		}
		groups[labels[id]] = append(groups[labels[id]], f(id))
	}
	return NewShardPlan(groups, "twin")
}

// TestRelabelTwin: Equations 1–4 never read a node ID, only its order,
// so relabelling nodes, pairs and the shard plan by an order-keeping map
// must relabel the answer and change nothing else. The sharded model
// needs the plan: without one, buildShards hashes IDs into shards and
// the twin differs by design. It catches a node ID used where a dense
// index belongs.
func TestRelabelTwin(t *testing.T) {
	ok, total := 0, 0
	for _, in := range twinInputs(t) {
		base := twinModels(in.snap, labelPlan(in.labels, func(id int) int { return id }))
		twin := twinModels(relabelSnapshot(in.snap), labelPlan(in.labels, relabel))
		ok += checkTwin(t, in, base, twin, relabel)
		total += 8
	}
	if ok*2 < total {
		t.Fatalf("only %d of %d allocations succeeded", ok, total)
	}
}

// checkOneShard is the one-shard twin: the sharded model whose single
// shard holds every node against the dense model, on a request within
// free capacity (Σ Equation 3 capacities). Above it the scouts
// extrapolate costs where Algorithm 1 deals round-robin, so Algorithm 2
// normalises over different sums by design (DESIGN §12). The one-shard
// winner's procs map must equal that of the dense candidate with the
// same start, and its T_G must be within 1e-12 relative of both that
// candidate's and the dense winner's: the starts may differ only at such
// a near-tie, and two near-tied starts may fill their last node
// differently. It reports whether it compared, and whether the starts
// differed.
func checkOneShard(t *testing.T, snap *metrics.Snapshot, req Request) (compared, nearTie bool) {
	t.Helper()
	dense := NewCostModel(snap, req.Weights, false)
	n := dense.Len()
	if n < 2 || dense.CLErr() != nil || dense.NLErr() != nil {
		return false, false
	}
	free := 0
	for _, c := range dense.caps(req) {
		free += c
	}
	if req.Procs > free {
		return false, false
	}
	one := NewCostModelSharded(snap, req.Weights, false, ShardOptions{Threshold: 2, MaxShardSize: n})
	if !one.Sharded() || one.shard.numShards() != 1 {
		t.Fatalf("MaxShardSize %d over %d nodes: sharded=%v", n, n, one.Sharded())
	}
	want, cands, err := NetLoadAware{}.AllocateExplainModel(dense, req)
	got, _, gerr := NetLoadAware{}.AllocateExplainModel(one, req)
	if err != nil || gerr != nil {
		t.Fatalf("dense error %v, one-shard error %v", err, gerr)
	}
	within := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	at := want // the dense candidate seeded where the one-shard winner is
	for _, c := range cands {
		if c.Start == got.Start {
			at = c
		}
	}
	if at.Start != got.Start || !reflect.DeepEqual(got.Procs, at.Procs) ||
		!within(got.TotalLoad, at.TotalLoad) || !within(at.TotalLoad, want.TotalLoad) {
		t.Fatalf("procs %d:\none shard %+v\ndense     %+v\ndense winner %+v", req.Procs, got, at, want)
	}
	return true, got.Start != want.Start
}

// spokeOneShard runs the one-shard twin on a hub case.
func spokeOneShard(t *testing.T, c oracleCase, _ *oracle) { checkOneShard(t, c.snap, c.req) }

// TestOneShardTwin runs the one-shard twin on 200 seeded snapshots, each
// with a request within free capacity.
func TestOneShardTwin(t *testing.T) {
	compared, nearTies := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed * 7727)
		n := 2 + r.Intn(39)
		snap := randomSnapshot(r, n, seed%2 == 0)
		alpha := r.Float64()
		req, err := Request{Procs: 1, PPN: r.Intn(5), Alpha: alpha, Beta: 1 - alpha}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		free := 0
		for _, c := range NewCostModel(snap, req.Weights, false).caps(req) {
			free += c
		}
		req.Procs = 1 + r.Intn(max(free, 1))
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if ok, tie := checkOneShard(t, snap, req); ok {
				compared++
				if tie {
					nearTies++
				}
			}
		})
	}
	if compared < 150 {
		t.Fatalf("only %d of 200 snapshots compared", compared)
	}
	t.Logf("%d compared, %d near-ties with different starts", compared, nearTies)
}
