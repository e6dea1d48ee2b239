package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
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
	if got := m.NewLike(snap, PaperWeights()); !got.Sharded() {
		t.Fatal("NewLike dropped the shard layer")
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
}
