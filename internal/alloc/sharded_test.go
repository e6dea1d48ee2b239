package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// shardedEquivSnapshot builds a seeded snapshot whose pair measurements
// follow a switch-like structure: nShards groups of perShard nodes with
// fast, fully measured intra-group links and slower, sparsely measured
// cross-group links. It returns the snapshot plus the group membership
// (node IDs per group) for building the matching ShardPlan.
func shardedEquivSnapshot(r *rng.Rand, nShards, perShard int) (*metrics.Snapshot, [][]int) {
	snap := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	groups := make([][]int, nShards)
	shardOf := make(map[int]int)
	var ids []int
	id := 0
	for s := 0; s < nShards; s++ {
		for i := 0; i < perShard; i++ {
			id += 1 + r.Intn(3)
			ids = append(ids, id)
			groups[s] = append(groups[s], id)
			shardOf[id] = s
		}
	}
	for _, k := range perm(r, len(ids)) {
		nid := ids[k]
		snap.Livehosts = append(snap.Livehosts, nid)
		cores := 4 * (1 + r.Intn(4))
		na := metrics.NodeAttrs{
			NodeID: nid, Hostname: fmt.Sprintf("n%d", nid), Timestamp: t0,
			Cores: cores, FreqGHz: r.Range(2.0, 5.0), TotalMemMB: 8192 * float64(1+r.Intn(3)),
			Users: r.Intn(4),
		}
		load := r.Range(0, float64(cores))
		na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
		na.CPUUtilPct = stats.Windowed{M1: r.Range(0, 100), M5: 50, M15: 50}
		na.FlowRateBps = stats.Windowed{M1: r.Range(0, 5e7), M5: 1e7, M15: 1e7}
		na.AvailMemMB = stats.Windowed{M1: r.Range(1000, na.TotalMemMB), M5: 9000, M15: 9000}
		snap.Nodes[nid] = na
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			same := shardOf[ids[i]] == shardOf[ids[j]]
			if !same && !r.Bool(0.4) {
				continue // most cross-shard pairs are unmeasured (sampled boundary)
			}
			key := metrics.Pair(ids[i], ids[j])
			var lat time.Duration
			var avail float64
			peak := 125e6
			if same {
				lat = time.Duration(r.Range(50, 150)) * time.Microsecond
				avail = r.Range(80e6, 120e6)
			} else {
				lat = time.Duration(r.Range(300, 900)) * time.Microsecond
				avail = r.Range(10e6, 60e6)
			}
			snap.Latency[key] = metrics.PairLatency{U: key.U, V: key.V, Timestamp: t0, Last: lat, Mean1: lat}
			snap.Bandwidth[key] = metrics.PairBandwidth{U: key.U, V: key.V, Timestamp: t0, AvailBps: avail, PeakBps: peak}
		}
	}
	return snap, groups
}

// denseGroupCost prices a chosen node set under the exhaustive dense
// model: α·Σ CLUnit + β·Σ NLUnit over all pairs — the exact raw group
// cost the paper's Equation 4 normalizes.
func denseGroupCost(m *CostModel, nodes []int, req Request) float64 {
	n := m.Len()
	cost := 0.0
	for _, id := range nodes {
		i, ok := m.idx[id]
		if !ok {
			panic(fmt.Sprintf("node %d not in model", id))
		}
		cost += req.Alpha * m.CLUnit[i]
	}
	for a := 0; a < len(nodes); a++ {
		for b := a + 1; b < len(nodes); b++ {
			cost += req.Beta * m.NLUnit[m.idx[nodes[a]]*n+m.idx[nodes[b]]]
		}
	}
	return cost
}

// TestShardedQualityWithinBound is the randomized quality-equivalence
// suite: 24 seeded topology-structured snapshots at 64-256 nodes, each
// allocated by both the exhaustive dense path and the two-level sharded
// path, with both chosen groups priced under the dense model. The
// sharded group's raw cost must stay within 1.1x of the dense one's.
func TestShardedQualityWithinBound(t *testing.T) {
	p := NetLoadAware{}
	alphas := []float64{0.2, 0.5, 0.8}
	worst := 0.0
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed * 13007)
		nShards := 4 + int(seed)%13 // 4..16 shards of 16 → 64..256 nodes
		perShard := 16
		snap, groups := shardedEquivSnapshot(r, nShards, perShard)
		plan := NewShardPlan(groups, "test-topology")
		opts := ShardOptions{Plan: plan, Threshold: 32, MaxShardSize: perShard, TopK: 4}
		alpha := alphas[int(seed)%len(alphas)]
		req := Request{
			Procs: 1 + r.Intn(2*perShard),
			Alpha: alpha,
			Beta:  1 - alpha,
		}
		vreq, err := req.Validate()
		if err != nil {
			t.Fatal(err)
		}
		dm := NewCostModel(snap, vreq.Weights, false)
		denseBest, _, err := p.AllocateExplainModel(dm, req)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		sm := NewCostModelSharded(snap, vreq.Weights, false, opts)
		if !sm.Sharded() {
			t.Fatalf("seed %d: model not sharded at n=%d", seed, nShards*perShard)
		}
		shardBest, _, err := p.AllocateExplainModel(sm, req)
		if err != nil {
			t.Fatalf("seed %d: sharded: %v", seed, err)
		}
		for tag, best := range map[string]Candidate{"dense": denseBest, "sharded": shardBest} {
			total := 0
			for _, c := range best.Procs {
				total += c
			}
			if total != req.Procs {
				t.Fatalf("seed %d: %s allocation covers %d of %d procs", seed, tag, total, req.Procs)
			}
		}
		costD := denseGroupCost(dm, denseBest.Nodes, vreq)
		costS := denseGroupCost(dm, shardBest.Nodes, vreq)
		ratio := 1.0
		if costD > 0 {
			ratio = costS / costD
		}
		if ratio > worst {
			worst = ratio
		}
		if ratio > 1.1 {
			t.Errorf("seed %d (n=%d procs=%d α=%.1f): sharded cost %.6f vs dense %.6f (%.3fx > 1.1x)",
				seed, nShards*perShard, req.Procs, alpha, costS, costD, ratio)
		}
	}
	t.Logf("worst sharded/dense cost ratio across suite: %.4fx", worst)
}

// TestShardedSpillCrossesShards forces the spill path: one searched
// shard (TopK=1) whose capacity cannot cover the request, so every
// candidate must cross boundaries, be marked Spill, and still cover
// req.Procs exactly; the spill counter drains through TakeShardSpills.
func TestShardedSpillCrossesShards(t *testing.T) {
	r := rng.New(99)
	snap, groups := shardedEquivSnapshot(r, 4, 8)
	plan := NewShardPlan(groups, "test-topology")
	opts := ShardOptions{Plan: plan, Threshold: 16, MaxShardSize: 8, TopK: 1}
	// PPN=2 caps one 8-node shard at 16 ranks; 40 ranks need 20 nodes.
	req := Request{Procs: 40, PPN: 2, Alpha: 0.5, Beta: 0.5}
	vreq, err := req.Validate()
	if err != nil {
		t.Fatal(err)
	}
	m := NewCostModelSharded(snap, vreq.Weights, false, opts)
	if !m.Sharded() {
		t.Fatal("model not sharded")
	}
	best, cands, err := NetLoadAware{}.AllocateExplainModel(m, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 8 {
		t.Fatalf("candidate count = %d, want 8 (one per top-shard start)", len(cands))
	}
	for i, c := range cands {
		if !c.Spill {
			t.Fatalf("candidate %d did not spill despite insufficient shard capacity", i)
		}
	}
	if !best.Spill {
		t.Fatal("best candidate not marked as spilled")
	}
	total := 0
	seen := make(map[int]bool)
	for id, cnt := range best.Procs {
		total += cnt
		if seen[id] {
			t.Fatalf("node %d assigned twice", id)
		}
		seen[id] = true
	}
	if total != req.Procs {
		t.Fatalf("allocation covers %d of %d procs", total, req.Procs)
	}
	if len(best.Nodes) <= 8 {
		t.Fatalf("best used %d nodes; spill should exceed the 8-node shard", len(best.Nodes))
	}
	if got := m.TakeShardSpills(); got == 0 {
		t.Fatal("TakeShardSpills = 0 after spilled candidates")
	}
	if got := m.TakeShardSpills(); got != 0 {
		t.Fatalf("TakeShardSpills not drained: second call = %d", got)
	}
}

// TestShardedHashFallbackDeterministic checks the no-plan path: hash
// bucketing must be stable across model builds, and two identical
// builds must allocate identically.
func TestShardedHashFallbackDeterministic(t *testing.T) {
	r := rng.New(7)
	snap := randomSnapshot(r, 80, false)
	opts := ShardOptions{Threshold: 64, MaxShardSize: 16, TopK: 3}
	req := Request{Procs: 48, Alpha: 0.5, Beta: 0.5}
	vreq, err := req.Validate()
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewCostModelSharded(snap, vreq.Weights, false, opts)
	m2 := NewCostModelSharded(snap, vreq.Weights, false, opts)
	if !m1.Sharded() || !m2.Sharded() {
		t.Fatal("hash-fallback model not sharded")
	}
	if _, src := m1.ShardInfo(); src != "hash" {
		t.Fatalf("shard source = %q, want hash", src)
	}
	if s1, _ := m1.ShardInfo(); s1 < 80/16 {
		t.Fatalf("shard count %d too small for 80 nodes at max size 16", s1)
	}
	p := NetLoadAware{}
	b1, c1, err := p.AllocateExplainModel(m1, req)
	if err != nil {
		t.Fatal(err)
	}
	b2, c2, err := p.AllocateExplainModel(m2, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("identical hash-sharded builds allocated differently")
	}
}

// TestShardedUpdateNodesPreservesShard checks the broker's delta path:
// a dynamic-attribute update on a sharded model keeps the hierarchy (no
// O(n²) rebuild), re-runs Equation 1 identically to a fresh build, and
// still allocates identically to that fresh build.
func TestShardedUpdateNodesPreservesShard(t *testing.T) {
	r := rng.New(5)
	snap, groups := shardedEquivSnapshot(r, 6, 12)
	plan := NewShardPlan(groups, "test-topology")
	opts := ShardOptions{Plan: plan, Threshold: 32, MaxShardSize: 12, TopK: 3}
	w := PaperWeights()
	m := NewCostModelSharded(snap, w, false, opts)
	if !m.Sharded() {
		t.Fatal("base model not sharded")
	}

	next := snap.Clone()
	next.Taken = next.Taken.Add(time.Second)
	var changed []int
	for i := 0; i < 3; i++ {
		id := m.IDs[r.Intn(len(m.IDs))]
		mutateDynamicAttrs(r, next, id)
		changed = append(changed, id)
	}
	u, ok := m.UpdateNodes(next, changed)
	if !ok {
		t.Fatal("UpdateNodes refused a pure dynamic-attr change on a sharded model")
	}
	if !u.Sharded() {
		t.Fatal("UpdateNodes dropped the shard layer")
	}
	uShards, uSrc := u.ShardInfo()
	mShards, mSrc := m.ShardInfo()
	if uShards != mShards || uSrc != mSrc {
		t.Fatalf("shard info changed: (%d,%s) -> (%d,%s)", mShards, mSrc, uShards, uSrc)
	}

	fresh := NewCostModelSharded(next, w, false, opts)
	if !reflect.DeepEqual(u.CLUnit, fresh.CLUnit) {
		t.Fatal("incremental CLUnit diverged from fresh sharded build")
	}
	req := Request{Procs: 30, Alpha: 0.5, Beta: 0.5}
	p := NetLoadAware{}
	bu, _, err := p.AllocateExplainModel(u, req)
	if err != nil {
		t.Fatal(err)
	}
	bf, _, err := p.AllocateExplainModel(fresh, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bu, bf) {
		t.Fatalf("incremental sharded model allocated differently:\nupdate: %+v\nfresh:  %+v", bu, bf)
	}
}

// TestShardedReservingPolicyKeepsHierarchy checks the Charged rebuild
// path: a reservation-charged snapshot re-prices through NewLike, so the
// inner policy keeps seeing a sharded model.
func TestShardedReservingPolicyKeepsHierarchy(t *testing.T) {
	r := rng.New(21)
	snap, groups := shardedEquivSnapshot(r, 4, 12)
	plan := NewShardPlan(groups, "test-topology")
	opts := ShardOptions{Plan: plan, Threshold: 16, MaxShardSize: 12, TopK: 2}
	m := NewCostModelSharded(snap, PaperWeights(), false, opts)
	if !m.Sharded() {
		t.Fatal("model not sharded")
	}
	res := NewReservingPolicy(NetLoadAware{}, time.Minute)
	req := Request{Procs: 16, Alpha: 0.5, Beta: 0.5}
	// First call passes the model through; it records a reservation, so
	// the second call must rebuild from the charged snapshot via NewLike
	// and still satisfy the request (the rebuilt model stays sharded by
	// construction — NewLike preserves the options).
	if _, err := res.AllocateModel(m, req, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	a, err := res.AllocateModel(m, req, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalProcs() != 16 {
		t.Fatalf("charged-path allocation covered %d of 16 procs", a.TotalProcs())
	}
	if got := m.NewLike(snap); !got.Sharded() || got.Weights != m.Weights {
		t.Fatal("NewLike dropped the shard layer or the weights")
	}
}

// candidatesDigest hashes everything allocateSharded decides: for the
// winner and then every candidate in order, Start, Spill, the node list
// with each node's rank count, and the exact bits of the three costs.
func candidatesDigest(best Candidate, cands []Candidate) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	one := func(c Candidate) {
		word(uint64(c.Start))
		if c.Spill {
			word(1)
		} else {
			word(0)
		}
		word(uint64(len(c.Nodes)))
		word(uint64(len(c.Procs)))
		for _, id := range c.Nodes {
			word(uint64(id))
			word(uint64(c.Procs[id]))
		}
		word(math.Float64bits(c.ComputeCost))
		word(math.Float64bits(c.NetworkCost))
		word(math.Float64bits(c.TotalLoad))
	}
	one(best)
	word(uint64(len(cands)))
	for _, c := range cands {
		one(c)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestShardedGoldenDigests pins allocateSharded's exact output — every
// candidate's selection, order, rank counts, spill flag and cost bits —
// on seeded snapshots over a topology plan, hash buckets and the forced
// spill shape. TestShardedQualityWithinBound only bounds quality; this
// is the bit-identity gate for refactors of the scout/union/spill path.
// The digests were produced by the four-copy implementation (PR 12
// parent) and must not change.
// TestShardedParallelMatchesSequential runs a plan large enough that
// both sharded fan-outs (the shard scouts and the union's candidates)
// pass minParallelWork, with one scheduler thread and with four: the
// candidate list must not depend on the worker count. Under -race it is
// the test that exercises the sharded pool.
func TestShardedParallelMatchesSequential(t *testing.T) {
	const nShards, perShard = 4, 64
	if nShards*perShard*perShard < minParallelWork {
		t.Fatal("plan too small to reach the worker pool")
	}
	snap, groups := shardedEquivSnapshot(rng.New(17), nShards, perShard)
	m := NewCostModelSharded(snap, PaperWeights(), false, ShardOptions{
		Plan: NewShardPlan(groups, "test-topology"), Threshold: 16, MaxShardSize: perShard, TopK: 2})
	if !m.Sharded() {
		t.Fatal("model not sharded")
	}
	req := Request{Procs: 600, PPN: 4, Alpha: 0.4, Beta: 0.6} // past the union's 512 slots: spills too
	run := func(procs int) (Candidate, []Candidate) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		best, cands, err := NetLoadAware{}.AllocateExplainModel(m, req)
		if err != nil {
			t.Fatal(err)
		}
		if m.TakeShardSpills() == 0 {
			t.Fatal("request did not spill")
		}
		return best, cands
	}
	seqBest, seqCands := run(1)
	parBest, parCands := run(4)
	if !reflect.DeepEqual(seqBest, parBest) || !reflect.DeepEqual(seqCands, parCands) {
		t.Fatalf("worker pool changed the result:\nsequential best %+v\nparallel best   %+v", seqBest, parBest)
	}
}

func TestShardedGoldenDigests(t *testing.T) {
	topo := func(seed uint64, nShards, perShard, topK int) *CostModel {
		snap, groups := shardedEquivSnapshot(rng.New(seed), nShards, perShard)
		return NewCostModelSharded(snap, PaperWeights(), false, ShardOptions{
			Plan: NewShardPlan(groups, "test-topology"), Threshold: 16, MaxShardSize: perShard, TopK: topK})
	}
	hashed := func(seed uint64, n int) *CostModel {
		snap := randomSnapshot(rng.New(seed), n, false)
		return NewCostModelSharded(snap, PaperWeights(), false,
			ShardOptions{Threshold: 64, MaxShardSize: 16, TopK: 3})
	}
	cases := []struct {
		name  string
		model *CostModel
		req   Request
		want  string
	}{
		// One node covers the request; a handful do; a whole shard cannot
		// (scout extrapolation, candidates mixing searched shards); the
		// union cannot (spill); the cluster cannot (round-robin remainder).
		{"topology/one-node", topo(3, 8, 16, 4), Request{Procs: 2, Alpha: 0.5, Beta: 0.5}, "3244f28d96822081cc0f3b41"},
		{"topology/few-nodes", topo(3, 8, 16, 4), Request{Procs: 24, Alpha: 0.2, Beta: 0.8}, "dcd18676f5159a3ee9926dcc"},
		{"topology/ppn", topo(5, 8, 16, 4), Request{Procs: 24, PPN: 2, Alpha: 0.8, Beta: 0.2}, "31f8caaa937d06f02a281c30"},
		{"topology/over-shard", topo(7, 6, 12, 3), Request{Procs: 150, Alpha: 0.5, Beta: 0.5}, "3563c1ff10c340b830e41eea"},
		{"topology/compute-only", topo(7, 6, 12, 3), Request{Procs: 40, Alpha: 1, Beta: 0}, "0551662b4ba57b17eaa808d0"},
		{"topology/network-only", topo(9, 16, 16, 4), Request{Procs: 40, PPN: 4, Alpha: 0, Beta: 1}, "fae323ba48d7ad061e799de2"},
		{"hash/few-nodes", hashed(7, 80), Request{Procs: 5, Alpha: 0.5, Beta: 0.5}, "e18dbab3c523a8b79c909080"},
		{"hash/many-nodes", hashed(7, 80), Request{Procs: 48, Alpha: 0.5, Beta: 0.5}, "1d6ec32d2e6f436a62cb7acd"},
		{"hash/ppn", hashed(11, 130), Request{Procs: 64, PPN: 1, Alpha: 0.3, Beta: 0.7}, "3752cc95016c5d4e49a4ae49"},
		{"spill/topk1", topo(99, 4, 8, 1), Request{Procs: 40, PPN: 2, Alpha: 0.5, Beta: 0.5}, "c802df891b2c12af2cd2a869"},
		{"spill/union-short", topo(99, 4, 8, 2), Request{Procs: 50, PPN: 2, Alpha: 0.4, Beta: 0.6}, "73f2549f40a2d4bff9b5fde4"},
		{"spill/over-cluster", topo(99, 4, 8, 1), Request{Procs: 81, PPN: 2, Alpha: 0.5, Beta: 0.5}, "6a3a6c20e6363465fa8f3e7d"},
	}
	for _, tc := range cases {
		if !tc.model.Sharded() {
			t.Fatalf("%s: model not sharded", tc.name)
		}
		best, cands, err := NetLoadAware{}.AllocateExplainModel(tc.model, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := candidatesDigest(best, cands); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	// Shards of 16 or fewer members never reach coverPrefix's histogram:
	// these 64-member shards do, on the scouts' own shape (prefix 32 of
	// 64), where no shard covers (extrapolation, every member selected),
	// and at β = 0 (every cost but the seed's is its α·CLUnit).
	wide := []struct {
		name  string
		model *CostModel
		req   Request
		want  string
	}{
		{"scout/bench-shape", topo(1024, 16, 64, 4), Request{Procs: 64, PPN: 2, Alpha: 0.3, Beta: 0.7}, "b28ff00b1367ee4633a91b05"},
		{"scout/over-shard", topo(61, 4, 64, 2), Request{Procs: 400, Alpha: 0.5, Beta: 0.5}, "c4e38914d0b8fd4e35ff4120"},
		{"scout/beta-zero", topo(62, 4, 64, 2), Request{Procs: 48, PPN: 2, Alpha: 1, Beta: 0}, "df5adfde86eef2e78590df9d"},
	}
	for _, tc := range wide {
		best, cands, err := NetLoadAware{}.AllocateExplainModel(tc.model, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := candidatesDigest(best, cands); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	// Equation 3 never prices a node at zero capacity, so the scouts meet
	// one only through a caller's capacities: every third member here, and
	// all of shard 1. The digest is every shard's (best, sumC, sumN) bits.
	m := topo(63, 4, 64, 2)
	req := Request{Procs: 40, PPN: 2, Alpha: 0.3, Beta: 0.7}
	caps := m.caps(req)
	for s, members := range m.shard.shards {
		for k, i := range members {
			if s == 1 || k%3 == 0 {
				caps[i] = 0
			}
		}
	}
	if got, want := scoutDigest(m, caps, req), "a8dc3ab5e5aed90a3433bb1a"; got != want {
		t.Errorf("scout/zero-caps: digest %s, want %s", got, want)
	}
}

// scoutDigest hashes every shard's scout result under caps, in shard
// order: the exact bits of its best cost and its two summed costs.
func scoutDigest(m *CostModel, caps []int, req Request) string {
	h := sha256.New()
	var sc genScratch
	for s := range m.shard.shards {
		best, sumC, sumN := NetLoadAware{}.scoutShard(m, s, caps, req, &sc)
		for _, v := range []float64{best, sumC, sumN} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// refScout is scoutShard written naively: from every member of shard s,
// price the members with capacity (the seed at 0), order them by
// (cost, position), take the shortest prefix that covers req.Procs, and
// sum C and N in selection order, scaled up when even the whole shard
// falls short.
func refScout(m *CostModel, s int, caps []int, req Request) (best, sumC, sumN float64) {
	members, sub := m.shard.shards[s], m.shard.sub[s]
	size := len(members)
	var cand []int // shard-local positions with capacity
	for p, u := range members {
		if caps[u] > 0 {
			cand = append(cand, p)
		}
	}
	best = math.Inf(1)
	if len(cand) == 0 {
		return best, 0, 0
	}
	for pv := range members {
		cost := map[int]float64{}
		for _, p := range cand {
			if p != pv {
				cost[p] = float64(req.Alpha*m.CLUnit[members[p]]) + float64(req.Beta*sub[pv*size+p])
			}
		}
		order := slices.Clone(cand)
		sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] < cost[order[b]] })
		var used []int
		left := req.Procs
		for _, p := range order {
			if left <= 0 {
				break
			}
			used = append(used, p)
			left -= min(caps[members[p]], left)
		}
		c, nn := 0.0, 0.0
		for a, p := range used {
			c += m.CLUnit[members[p]]
			for _, q := range used[a+1:] {
				nn += sub[p*size+q]
			}
		}
		if left > 0 {
			scale := float64(req.Procs) / float64(req.Procs-left)
			c *= scale
			nn *= scale
		}
		sumC += c
		sumN += nn
		if cost := req.Alpha*c + req.Beta*nn; cost < best {
			best = cost
		}
	}
	return best, sumC, sumN
}

// TestScoutMatchesReference holds scoutShard's (best, sumC, sumN) bits
// to refScout on seeded shards of 17–96 members, which reach the
// histogram cut: costs with ties (CLUnit and NL rounded to a few
// levels), zero capacities, α = 0, requests a shard cannot cover, and
// one far outlier. It also holds both fills to their contract: the
// scout's row fill and level 2's sharded fill price what pairNL prices,
// and report the span of every cost but the seed's.
func TestScoutMatchesReference(t *testing.T) {
	r := rng.New(1729)
	var sc genScratch
	for trial := 0; trial < 24; trial++ {
		perShard := 17 + r.Intn(80)
		snap, groups := shardedEquivSnapshot(r, 2, perShard)
		m := NewCostModelSharded(snap, PaperWeights(), false, ShardOptions{
			Plan: NewShardPlan(groups, "test-topology"), Threshold: 16, MaxShardSize: perShard, TopK: 1})
		sm := m.shard
		if trial%2 == 1 { // ties: a handful of levels (rounding keeps each sub-matrix symmetric)
			for i := range m.CLUnit {
				m.CLUnit[i] = math.Round(m.CLUnit[i] * 4)
			}
			for _, sub := range sm.sub {
				for k := range sub {
					sub[k] = math.Round(sub[k] * 2)
				}
			}
		}
		if trial%3 == 2 { // one far outlier: a node's compute load, or an intra-shard pair
			m.CLUnit[r.Intn(len(m.CLUnit))] = 1e6
			a, b := r.Intn(perShard), r.Intn(perShard)
			if a != b {
				sm.sub[0][a*perShard+b], sm.sub[0][b*perShard+a] = 1e6, 1e6
			}
		}
		alpha := []float64{0, 0.3, 0.5, 1}[trial%4]
		caps := m.caps(Request{PPN: r.Intn(3)})
		shardCap := 0
		for i := range caps {
			if r.Bool(0.2) {
				caps[i] = 0
			}
			if sm.shardOf[i] == 0 {
				shardCap += caps[i]
			}
		}
		for _, procs := range []int{1, 2 + r.Intn(8), 1 + shardCap/2, shardCap, shardCap + 1 + r.Intn(40)} {
			req := Request{Procs: max(procs, 1), Alpha: alpha, Beta: 1 - alpha}
			for s := range sm.shards {
				gb, gc, gn := NetLoadAware{}.scoutShard(m, s, caps, req, &sc)
				wb, wc, wn := refScout(m, s, caps, req)
				for k, pair := range [][2]float64{{gb, wb}, {gc, wc}, {gn, wn}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("trial %d shard %d (size %d, α %g, procs %d): scout %s = %v, reference %v",
							trial, s, perShard, alpha, req.Procs, []string{"best", "sumC", "sumN"}[k], pair[0], pair[1])
					}
				}
			}
		}

		// The fills, from every seed: the scout's over shard 0's positions,
		// level 2's over every node of both shards.
		req := Request{Alpha: alpha, Beta: 1 - alpha}
		var set candSet
		set.build(m, nil, caps, alpha)
		sc.grow(&set)
		for v := range m.IDs {
			sp := sc.fill(m, v, &set, req.Beta, true)
			seed := -1
			for k, u := range set.idx {
				want := 0.0
				if u == v {
					seed = k
				} else {
					want = set.alphaCL[k] + req.Beta*sm.pairNL(v, u)
				}
				if math.Float64bits(sc.addCost[k]) != math.Float64bits(want) {
					t.Fatalf("trial %d seed %d: level-2 fill prices node %d at %v, pairNL at %v", trial, v, u, sc.addCost[k], want)
				}
			}
			if want := naiveSpan(sc.addCost[:len(set.idx)], seed); !sameSpan(sp, want) {
				t.Fatalf("trial %d seed %d: level-2 fill span %+v, want %+v", trial, v, sp, want)
			}
		}
		set.build(m, sm.shards[0], caps, alpha)
		local := make([]int, len(set.idx))
		for k, u := range set.idx {
			local[k] = sm.posOf[u]
		}
		cost := make([]float64, len(set.idx))
		for pv := range sm.shards[0] {
			sp := fillRow(cost, set.alphaCL, req.Beta, sm.sub[0][pv*perShard:(pv+1)*perShard], local, pv, true)
			if want := naiveSpan(cost, slices.Index(local, pv)); !sameSpan(sp, want) {
				t.Fatalf("trial %d seed position %d: scout fill span %+v, want %+v", trial, pv, sp, want)
			}
		}
	}
}

// shardedAnswer is what an allocate decides, compared bit for bit.
type shardedAnswer struct {
	nodes     []int
	procs     map[int]int
	totalBits uint64
}

func allocateAnswer(t testing.TB, m *CostModel, req Request) shardedAnswer {
	t.Helper()
	a, err := NetLoadAware{}.AllocateModel(m, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	return shardedAnswer{a.Nodes, a.Procs, math.Float64bits(a.TotalLoad)}
}

// memoShapes differ pairwise in one key field each: A and B in PPN, C
// and D in β alone (α+β stays within Validate's tolerance), and B and C
// in everything else.
var memoShapes = []Request{
	{Procs: 64, PPN: 2, Alpha: 0.3, Beta: 0.7},
	{Procs: 64, PPN: 4, Alpha: 0.3, Beta: 0.7},
	{Procs: 40, PPN: 2, Alpha: 0.9992, Beta: 0},
	{Procs: 40, PPN: 2, Alpha: 0.9992, Beta: 0.0016},
}

// memoModels returns a constructor for two 8×16-node sharded models: a
// seeded one, and one whose nodes all publish the same attributes, so
// every CLUnit is 1 and β = 0 against β > 0 reorders every selection
// (a small β change barely moves the seeded model's).
func memoModels() []func() *CostModel {
	snap, groups := shardedEquivSnapshot(rng.New(31), 8, 16)
	flat := snap.Clone()
	same := flat.Nodes[flat.Livehosts[0]]
	for _, id := range flat.Livehosts {
		na := same
		na.NodeID = id
		flat.Nodes[id] = na
	}
	opts := ShardOptions{Plan: NewShardPlan(groups, "test-topology"), Threshold: 16, MaxShardSize: 16, TopK: 2}
	return []func() *CostModel{
		func() *CostModel { return NewCostModelSharded(snap, PaperWeights(), false, opts) },
		func() *CostModel { return NewCostModelSharded(flat, PaperWeights(), false, opts) },
	}
}

// TestShardedMemoAnswersLikeFreshModel pins the level-1 memo: a model
// that served other shapes, or whose state was rewritten in place after
// it served one, answers exactly like a model that never held a memo.
func TestShardedMemoAnswersLikeFreshModel(t *testing.T) {
	for mi, build := range memoModels() {
		want := make([]shardedAnswer, len(memoShapes))
		for k, req := range memoShapes {
			want[k] = allocateAnswer(t, build(), req)
		}
		// (a) Alternating shapes replace the slot on every call.
		m := build()
		for round := 0; round < 3; round++ {
			for k, req := range memoShapes {
				if got := allocateAnswer(t, m, req); !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("model %d round %d shape %d: memoised %+v, fresh %+v", mi, round, k, got, want[k])
				}
			}
		}
		// (c) Concurrent allocates on one model share its slot.
		shared := build()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					k := (g + i) % 3
					a, err := NetLoadAware{}.AllocateModel(shared, memoShapes[k], nil)
					got := shardedAnswer{a.Nodes, a.Procs, math.Float64bits(a.TotalLoad)}
					if err != nil || !reflect.DeepEqual(got, want[k]) {
						errs <- fmt.Sprintf("model %d goroutine %d shape %d: %+v, %v", mi, g, k, got, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}

	// (b) In-place rewrites of a model that holds a memo.
	snap, groups := shardedEquivSnapshot(rng.New(43), 8, 16)
	opts := ShardOptions{Plan: NewShardPlan(groups, "test-topology"), Threshold: 16, MaxShardSize: 16, TopK: 2}
	build := func(s *metrics.Snapshot) *CostModel { return NewCostModelSharded(s, PaperWeights(), false, opts) }
	req := Request{Procs: 48, Alpha: 0.5, Beta: 0.5} // PPN 0: capacities read the loads
	next := snap.Clone()
	next.Taken = next.Taken.Add(time.Second)
	first := allocateAnswer(t, build(snap), req)
	r := rng.New(44)
	var changed []int
	for _, id := range first.nodes {
		mutateDynamicAttrs(r, next, id)
		changed = append(changed, id)
	}
	slices.Sort(changed)

	m := build(snap)
	allocateAnswer(t, m, req)
	if !m.RefreshAttrs(next, changed) {
		t.Fatal("RefreshAttrs refused")
	}
	ref := build(snap)
	ref.RefreshAttrs(next, changed)
	if got, want := allocateAnswer(t, m, req), allocateAnswer(t, ref, req); !reflect.DeepEqual(got, want) {
		t.Fatalf("after RefreshAttrs: memoised %+v, fresh %+v", got, want)
	}

	other, base := build(next), build(snap)
	ids, ranks := changed[:4], []int{3, 1, 4, 1}
	dst, ok := other.ChargeRanksAt(ids, ranks, nil, nil)
	if !ok {
		t.Fatal("ChargeRanksAt refused")
	}
	allocateAnswer(t, dst, req)
	if _, ok := base.ChargeRanksAt(ids, ranks, nil, dst); !ok {
		t.Fatal("ChargeRanksAt refused a reused destination")
	}
	fresh, _ := base.ChargeRanksAt(ids, ranks, nil, nil)
	if got, want := allocateAnswer(t, dst, req), allocateAnswer(t, fresh, req); !reflect.DeepEqual(got, want) {
		t.Fatalf("after ChargeRanksAt into a reused destination: memoised %+v, fresh %+v", got, want)
	}

	m = build(snap)
	allocateAnswer(t, m, req)
	u, ok := m.UpdateNodes(next, changed)
	if !ok {
		t.Fatal("UpdateNodes refused")
	}
	if got, want := allocateAnswer(t, u, req), allocateAnswer(t, build(next), req); !reflect.DeepEqual(got, want) {
		t.Fatalf("after UpdateNodes: memoised %+v, fresh %+v", got, want)
	}
}

// TestShardedWinnerOnlyMatchesExplain checks the winner-only level 2
// against the explain path on the golden fixtures' shapes: the same
// winner, and the spill counter advanced once per spilled candidate, so
// regenerating the winner never counts its spill twice.
func TestShardedWinnerOnlyMatchesExplain(t *testing.T) {
	topo := func(seed uint64, nShards, perShard, topK int) *CostModel {
		snap, groups := shardedEquivSnapshot(rng.New(seed), nShards, perShard)
		return NewCostModelSharded(snap, PaperWeights(), false, ShardOptions{
			Plan: NewShardPlan(groups, "test-topology"), Threshold: 16, MaxShardSize: perShard, TopK: topK})
	}
	hashed := func(seed uint64, n int) *CostModel {
		return NewCostModelSharded(randomSnapshot(rng.New(seed), n, false), PaperWeights(), false,
			ShardOptions{Threshold: 64, MaxShardSize: 16, TopK: 3})
	}
	cases := []struct {
		model func() *CostModel
		req   Request
	}{
		{func() *CostModel { return topo(3, 8, 16, 4) }, Request{Procs: 2, Alpha: 0.5, Beta: 0.5}},
		{func() *CostModel { return topo(3, 8, 16, 4) }, Request{Procs: 24, Alpha: 0.2, Beta: 0.8}},
		{func() *CostModel { return topo(5, 8, 16, 4) }, Request{Procs: 24, PPN: 2, Alpha: 0.8, Beta: 0.2}},
		{func() *CostModel { return topo(7, 6, 12, 3) }, Request{Procs: 150, Alpha: 0.5, Beta: 0.5}},
		{func() *CostModel { return topo(7, 6, 12, 3) }, Request{Procs: 40, Alpha: 1, Beta: 0}},
		{func() *CostModel { return topo(9, 16, 16, 4) }, Request{Procs: 40, PPN: 4, Alpha: 0, Beta: 1}},
		{func() *CostModel { return hashed(7, 80) }, Request{Procs: 48, Alpha: 0.5, Beta: 0.5}},
		{func() *CostModel { return hashed(11, 130) }, Request{Procs: 64, PPN: 1, Alpha: 0.3, Beta: 0.7}},
		{func() *CostModel { return topo(99, 4, 8, 1) }, Request{Procs: 40, PPN: 2, Alpha: 0.5, Beta: 0.5}},
		{func() *CostModel { return topo(99, 4, 8, 2) }, Request{Procs: 50, PPN: 2, Alpha: 0.4, Beta: 0.6}},
		{func() *CostModel { return topo(99, 4, 8, 1) }, Request{Procs: 81, PPN: 2, Alpha: 0.5, Beta: 0.5}},
	}
	sawSpill := false
	for i, tc := range cases {
		m := tc.model()
		got, err := NetLoadAware{}.AllocateModel(m, tc.req, nil)
		if err != nil {
			t.Fatal(err)
		}
		spills := m.TakeShardSpills()
		best, cands, err := NetLoadAware{}.AllocateExplainModel(tc.model(), tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Nodes, best.Nodes) || !reflect.DeepEqual(got.Procs, best.Procs) ||
			math.Float64bits(got.TotalLoad) != math.Float64bits(best.TotalLoad) {
			t.Errorf("case %d: winner-only %+v, explain winner %+v", i, got, best)
		}
		want := uint64(0)
		for _, c := range cands {
			if c.Spill {
				want++
			}
		}
		if spills != want {
			t.Errorf("case %d: TakeShardSpills = %d after one allocate, explain lists %d spilled candidates", i, spills, want)
		}
		sawSpill = sawSpill || want > 0
	}
	if !sawSpill {
		t.Fatal("no fixture spilled")
	}
}

// BenchmarkAllocateSharded times one allocate on a 16×64-node sharded
// model: fresh with level 1 scouted, its memo dropped before each call
// as UpdateNodes drops it on the broker's fresh path, and warm on the
// model that has just served the same shape (level 1 is the memo). The
// model is built once, outside the timer.
func BenchmarkAllocateSharded(b *testing.B) {
	snap, groups := shardedEquivSnapshot(rng.New(1024), 16, 64)
	opts := ShardOptions{Plan: NewShardPlan(groups, "bench"), Threshold: DefaultShardThreshold}
	req := Request{Procs: 64, PPN: 2, Alpha: 0.3, Beta: 0.7}
	build := func() *CostModel { return NewCostModelSharded(snap, PaperWeights(), false, opts) }
	b.Run("fresh", func(b *testing.B) {
		m := build()
		allocateAnswer(b, m, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.dropMemo()
			allocateAnswer(b, m, req)
		}
	})
	b.Run("warm", func(b *testing.B) {
		m := build()
		allocateAnswer(b, m, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			allocateAnswer(b, m, req)
		}
	})
}
