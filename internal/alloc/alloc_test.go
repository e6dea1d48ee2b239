package alloc

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

var t0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// synthSnapshot builds a fully measured snapshot of n nodes on a virtual
// line: nodes i and j have latency proportional to |i-j| and bandwidth
// complement proportional to |i-j|, so closeness == connectivity. Node
// loads are given per node.
func synthSnapshot(loads []float64) *metrics.Snapshot {
	n := len(loads)
	snap := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: "n", Timestamp: t0,
			Cores: 12, FreqGHz: 4.6, TotalMemMB: 16384,
		}
		na.CPULoad = stats.Windowed{M1: loads[i], M5: loads[i], M15: loads[i]}
		na.CPUUtilPct = stats.Windowed{M1: loads[i] * 10, M5: loads[i] * 10, M15: loads[i] * 10}
		na.FlowRateBps = stats.Windowed{M1: 1e6, M5: 1e6, M15: 1e6}
		na.AvailMemMB = stats.Windowed{M1: 12000, M5: 12000, M15: 12000}
		snap.Nodes[i] = na
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float64(j - i)
			key := metrics.Pair(i, j)
			snap.Latency[key] = metrics.PairLatency{
				U: i, V: j, Timestamp: t0,
				Last:  time.Duration(80+20*d) * time.Microsecond,
				Mean1: time.Duration(80+20*d) * time.Microsecond,
			}
			snap.Bandwidth[key] = metrics.PairBandwidth{
				U: i, V: j, Timestamp: t0,
				AvailBps: 120e6 - 10e6*d,
				PeakBps:  125e6,
			}
		}
	}
	return snap
}

func uniformLoads(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestPaperWeightsSumToOne(t *testing.T) {
	w := PaperWeights()
	sum := w.CPULoad + w.CPUUtil + w.FlowRate + w.AvailMem + w.Cores + w.Freq + w.TotalMem + w.Users
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("compute weights sum %g", sum)
	}
	if math.Abs(w.Latency+w.Bandwidth-1) > 1e-12 {
		t.Fatalf("network weights sum %g", w.Latency+w.Bandwidth)
	}
	if w.Latency != 0.25 || w.Bandwidth != 0.75 {
		t.Fatalf("w_lt/w_bw = %g/%g, paper uses 0.25/0.75", w.Latency, w.Bandwidth)
	}
}

func TestComputeLoadsOrdering(t *testing.T) {
	snap := synthSnapshot([]float64{0.1, 2.0, 5.0, 0.5})
	cl := NewCostModel(snap, PaperWeights(), false).CL
	// Identical nodes except load: CL must order by load.
	if !(cl[0] < cl[3] && cl[3] < cl[1] && cl[1] < cl[2]) {
		t.Fatalf("compute loads not load-ordered: %v", cl)
	}
}

func TestComputeLoadsHeterogeneousHardware(t *testing.T) {
	snap := synthSnapshot(uniformLoads(2, 1.0))
	// Make node 1 a slow 8-core machine.
	na := snap.Nodes[1]
	na.Cores = 8
	na.FreqGHz = 2.8
	snap.Nodes[1] = na
	cl := NewCostModel(snap, PaperWeights(), false).CL
	if cl[0] >= cl[1] {
		t.Fatalf("faster node should cost less: %v", cl)
	}
}

func TestComputeLoadsMissingNode(t *testing.T) {
	snap := synthSnapshot(uniformLoads(2, 1))
	if _, err := attrMatrix(snap, []int{0, 5}); err == nil {
		t.Fatal("missing node accepted")
	}
}

func TestNetworkLoadsOrdering(t *testing.T) {
	snap := synthSnapshot(uniformLoads(5, 0.5))
	m := NewCostModel(snap, PaperWeights(), false)
	// Closer pairs have lower network load.
	if !(m.PairNLUnit(0, 1) < m.PairNLUnit(0, 2) && m.PairNLUnit(0, 2) < m.PairNLUnit(0, 4)) {
		t.Fatalf("network loads not distance-ordered: %v", m.NLUnit)
	}
}

func TestNetworkLoadsUnmeasuredPairPricedWorst(t *testing.T) {
	snap := synthSnapshot(uniformLoads(4, 0.5))
	delete(snap.Bandwidth, metrics.Pair(0, 1))
	m := NewCostModel(snap, PaperWeights(), false)
	// The unmeasured near pair must not be cheaper than any measured pair.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if m.PairNLUnit(0, 1) < m.PairNLUnit(i, j) {
				t.Fatalf("unmeasured pair cheaper than (%d,%d): %v", i, j, m.NLUnit)
			}
		}
	}
}

func TestNetworkLoadsNoMeasurements(t *testing.T) {
	snap := synthSnapshot(uniformLoads(3, 0.5))
	snap.Bandwidth = map[metrics.PairKey]metrics.PairBandwidth{}
	if NewCostModel(snap, PaperWeights(), false).NLErr() == nil {
		t.Fatal("no measurements accepted")
	}
}

func TestEffectiveProcsEquation3(t *testing.T) {
	na := metrics.NodeAttrs{Cores: 12}
	cases := []struct {
		load float64
		want int
	}{
		{0, 12},   // idle: all cores
		{0.3, 11}, // ceil(0.3)=1 -> 12-1
		{3.2, 8},  // ceil=4 -> 12-4
		{11, 1},   // ceil=11 -> 12-11
		{12, 12},  // ceil=12 %12 = 0 -> 12 (the paper's modulo wrap)
		{14.5, 9}, // ceil=15 %12 = 3 -> 9
	}
	for _, c := range cases {
		na.CPULoad.M1 = c.load
		if got := EffectiveProcs(na, 0); got != c.want {
			t.Errorf("EffectiveProcs(load=%g) = %d, want %d", c.load, got, c.want)
		}
	}
	// ppn override wins.
	na.CPULoad.M1 = 3
	if got := EffectiveProcs(na, 4); got != 4 {
		t.Fatalf("ppn override = %d", got)
	}
}

func TestEffectiveProcsZeroCores(t *testing.T) {
	// Regression: a node publishing Cores == 0 (or a garbage negative
	// count) used to panic Equation 3 with an integer mod by zero. Such a
	// node is treated as having exactly one process slot.
	for _, cores := range []int{0, -3} {
		na := metrics.NodeAttrs{Cores: cores}
		for _, load := range []float64{0, 0.5, 7, 100} {
			na.CPULoad.M1 = load
			if got := EffectiveProcs(na, 0); got != 1 {
				t.Errorf("EffectiveProcs(cores=%d, load=%g) = %d, want 1", cores, load, got)
			}
		}
		// An explicit ppn still wins.
		if got := EffectiveProcs(na, 4); got != 4 {
			t.Errorf("EffectiveProcs(cores=%d, ppn=4) = %d, want 4", cores, got)
		}
	}
	// A negative load (corrupt measurement) must not panic either.
	na := metrics.NodeAttrs{Cores: 8}
	na.CPULoad.M1 = -2.5
	if got := EffectiveProcs(na, 0); got != 8 {
		t.Errorf("EffectiveProcs(cores=8, load=-2.5) = %d, want 8", got)
	}
}

func TestEffectiveProcsAlwaysPositive(t *testing.T) {
	na := metrics.NodeAttrs{Cores: 8}
	for load := 0.0; load < 40; load += 0.7 {
		na.CPULoad.M1 = load
		if got := EffectiveProcs(na, 0); got < 1 || got > 8 {
			t.Fatalf("EffectiveProcs(load=%g) = %d out of [1,8]", load, got)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	if _, err := (Request{Procs: 0}).Validate(); err == nil {
		t.Fatal("zero procs accepted")
	}
	if _, err := (Request{Procs: 4, PPN: -1}).Validate(); err == nil {
		t.Fatal("negative ppn accepted")
	}
	if _, err := (Request{Procs: 4, Alpha: 0.3, Beta: 0.3}).Validate(); err == nil {
		t.Fatal("α+β != 1 accepted")
	}
	if _, err := (Request{Procs: 4, Alpha: -0.5, Beta: 1.5}).Validate(); err == nil {
		t.Fatal("negative α accepted")
	}
	r, err := (Request{Procs: 4}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if r.Alpha != 0.5 || r.Beta != 0.5 {
		t.Fatalf("default α/β = %g/%g", r.Alpha, r.Beta)
	}
	if r.Weights == (Weights{}) {
		t.Fatal("weights not defaulted")
	}
}

// TestRequestValidateRejectsNaN pins that a NaN α or β is refused: NaN
// fails neither a < 0 test nor the α+β range test, and Algorithm 1's
// seed-alone step relies on β ≥ 0 for every validated request.
func TestRequestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, ab := range [][2]float64{{nan, nan}, {nan, 0.5}, {0.5, nan}, {nan, 1}, {1, nan}} {
		if _, err := (Request{Procs: 4, Alpha: ab[0], Beta: ab[1]}).Validate(); err == nil {
			t.Errorf("α=%g β=%g accepted", ab[0], ab[1])
		}
	}
	for _, ab := range [][2]float64{{0, 1}, {1, 0}, {0.3, 0.7}, {0.4995, 0.5}} {
		if _, err := (Request{Procs: 4, Alpha: ab[0], Beta: ab[1]}).Validate(); err != nil {
			t.Errorf("α=%g β=%g refused: %v", ab[0], ab[1], err)
		}
	}
}

func TestAllocationHelpers(t *testing.T) {
	a := Allocation{
		Nodes: []int{3, 7},
		Procs: map[int]int{3: 4, 7: 2},
	}
	if a.TotalProcs() != 6 {
		t.Fatalf("TotalProcs = %d", a.TotalProcs())
	}
	ranks := a.RankNodes()
	if len(ranks) != 6 {
		t.Fatalf("RankNodes = %v", ranks)
	}
	for r := 0; r < 4; r++ {
		if ranks[r] != 3 {
			t.Fatalf("rank %d on %d", r, ranks[r])
		}
	}
}

func TestFillRoundRobinSpill(t *testing.T) {
	nodes, procs := fillIdx([]int{0, 1}, []int{2, 2}, 7)
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
	// Spill distributed round-robin: 2+2 capacity, 3 extra -> 4/3.
	if procs[0] != 4 || procs[1] != 3 {
		t.Fatalf("round-robin spill = %v", procs)
	}
}

// TestPoliciesPlaceHugeRemainder asks six nodes of capacity 4 for 2^40
// processes: every policy must place all of them, dealt evenly, and the
// round-robin deal must cost a step per node rather than per process
// (one step per process would run for hours).
func TestPoliciesPlaceHugeRemainder(t *testing.T) {
	snap := synthSnapshot(uniformLoads(6, 0.5))
	req := Request{Procs: 1 << 40, PPN: 4}
	for _, pol := range allPolicies() {
		a, err := Allocate(pol, snap, req, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if got := a.TotalProcs(); got != req.Procs || len(a.Nodes) != 6 {
			t.Fatalf("%s placed %d of %d processes on %d nodes", pol.Name(), got, req.Procs, len(a.Nodes))
		}
		for _, id := range a.Nodes {
			if c := a.Procs[id]; c != req.Procs/6 && c != req.Procs/6+1 {
				t.Fatalf("%s: node %d got %d processes, want %d or one more", pol.Name(), id, c, req.Procs/6)
			}
		}
	}
}

func allPolicies() []Policy {
	return []Policy{Random{}, Sequential{}, LoadAware{}, NetLoadAware{}}
}

func TestPoliciesSatisfyRequest(t *testing.T) {
	snap := synthSnapshot(uniformLoads(10, 0.5))
	req := Request{Procs: 16, PPN: 4, Alpha: 0.3, Beta: 0.7}
	r := rng.New(1)
	for _, pol := range allPolicies() {
		a, err := Allocate(pol, snap, req, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if a.TotalProcs() != 16 {
			t.Fatalf("%s allocated %d procs", pol.Name(), a.TotalProcs())
		}
		if len(a.Nodes) != 4 {
			t.Fatalf("%s used %d nodes at ppn 4", pol.Name(), len(a.Nodes))
		}
		seen := map[int]bool{}
		for _, n := range a.Nodes {
			if seen[n] {
				t.Fatalf("%s selected node %d twice", pol.Name(), n)
			}
			seen[n] = true
			if !snap.Alive(n) {
				t.Fatalf("%s selected dead node %d", pol.Name(), n)
			}
		}
	}
}

func TestPoliciesOversubscribeWhenClusterTooSmall(t *testing.T) {
	snap := synthSnapshot(uniformLoads(3, 0.5))
	req := Request{Procs: 20, PPN: 4, Alpha: 0.5, Beta: 0.5}
	r := rng.New(2)
	for _, pol := range allPolicies() {
		a, err := Allocate(pol, snap, req, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if a.TotalProcs() != 20 {
			t.Fatalf("%s allocated %d of 20 requested", pol.Name(), a.TotalProcs())
		}
	}
}

func TestPoliciesFailOnEmptySnapshot(t *testing.T) {
	snap := &metrics.Snapshot{Taken: t0, Nodes: map[int]metrics.NodeAttrs{}}
	r := rng.New(3)
	for _, pol := range allPolicies() {
		if _, err := Allocate(pol, snap, Request{Procs: 4}, r.Split()); err == nil {
			t.Fatalf("%s allocated from empty snapshot", pol.Name())
		}
	}
}

// TestAllocateOnSnapshotWithoutPairs: a monitor that has published node
// state but no pairwise measurement yet still serves the three
// baselines, which never read the network half of the model; the
// heuristic reports the model's network-load error.
func TestAllocateOnSnapshotWithoutPairs(t *testing.T) {
	snap := synthSnapshot(uniformLoads(6, 0.5))
	snap.Latency = map[metrics.PairKey]metrics.PairLatency{}
	snap.Bandwidth = map[metrics.PairKey]metrics.PairBandwidth{}
	req := Request{Procs: 8, PPN: 4}
	r := rng.New(11)
	for _, pol := range []Policy{Random{}, Sequential{}, LoadAware{}} {
		a, err := Allocate(pol, snap, req, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if a.TotalProcs() != req.Procs {
			t.Fatalf("%s placed %d processes, want %d", pol.Name(), a.TotalProcs(), req.Procs)
		}
	}
	want := NewCostModel(snap, PaperWeights(), false).NLErr()
	if want == nil {
		t.Fatal("model priced a network with no measurements")
	}
	if _, err := Allocate(NetLoadAware{}, snap, req, r.Split()); err == nil || err.Error() != want.Error() {
		t.Fatalf("net-load-aware: got %v, want %v", err, want)
	}
}

func TestLoadAwarePicksLightestNodes(t *testing.T) {
	loads := []float64{5, 0.1, 4, 0.2, 3, 0.3, 2, 0.4}
	snap := synthSnapshot(loads)
	a, err := Allocate(LoadAware{}, snap, Request{Procs: 8, PPN: 4}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 3: true}
	for _, n := range a.Nodes {
		if !want[n] {
			t.Fatalf("load-aware picked %v, want nodes 1 and 3", a.Nodes)
		}
	}
}

func TestSequentialPicksConsecutive(t *testing.T) {
	snap := synthSnapshot(uniformLoads(10, 0.5))
	a, err := Allocate(Sequential{}, snap, Request{Procs: 12, PPN: 4}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Nodes must be consecutive mod 10 from some start.
	for i := 1; i < len(a.Nodes); i++ {
		if a.Nodes[i] != (a.Nodes[i-1]+1)%10 {
			t.Fatalf("sequential nodes not consecutive: %v", a.Nodes)
		}
	}
}

func TestRandomVariesWithStream(t *testing.T) {
	snap := synthSnapshot(uniformLoads(20, 0.5))
	seen := map[int]bool{}
	for seed := uint64(0); seed < 10; seed++ {
		a, err := Allocate(Random{}, snap, Request{Procs: 4, PPN: 4}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		seen[a.Nodes[0]] = true
	}
	if len(seen) < 3 {
		t.Fatalf("random policy barely varies: %v", seen)
	}
}

func TestNetLoadAwarePrefersConnectedGroup(t *testing.T) {
	// All loads equal: only network distinguishes. The best 2-node group
	// under the line metric is a pair of adjacent nodes.
	snap := synthSnapshot(uniformLoads(8, 1.0))
	a, err := Allocate(NetLoadAware{}, snap, Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != 2 {
		t.Fatalf("nodes = %v", a.Nodes)
	}
	d := a.Nodes[0] - a.Nodes[1]
	if d != 1 && d != -1 {
		t.Fatalf("net-load-aware picked non-adjacent pair %v", a.Nodes)
	}
}

func TestNetLoadAwareTradesLoadForConnectivity(t *testing.T) {
	// Nodes 0,1 lightly loaded but far apart from everything; nodes 5,6
	// moderately loaded and adjacent. With β high the adjacent pair wins
	// even though its load is higher; 0 and 1 are adjacent too, so place
	// the light nodes at opposite ends instead.
	loads := []float64{0.1, 3, 3, 3, 3, 0.8, 0.8, 0.1}
	snap := synthSnapshot(loads)
	// With β=0.9 the chosen pair must be adjacent (connectivity dominates);
	// the far-apart light pair {0,7} must lose.
	a, err := Allocate(NetLoadAware{}, snap, Request{Procs: 8, PPN: 4, Alpha: 0.1, Beta: 0.9}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != 2 {
		t.Fatalf("nodes = %v", a.Nodes)
	}
	if d := a.Nodes[0] - a.Nodes[1]; d != 1 && d != -1 {
		t.Fatalf("β=0.9 picked non-adjacent pair %v", a.Nodes)
	}
	// With α=0.9 the lightest nodes win regardless of distance.
	a2, err := Allocate(NetLoadAware{}, snap, Request{Procs: 8, PPN: 4, Alpha: 0.9, Beta: 0.1}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	got2 := map[int]bool{}
	for _, n := range a2.Nodes {
		got2[n] = true
	}
	if !got2[0] || !got2[7] {
		t.Fatalf("α=0.9 picked %v, want the lightest nodes {0,7}", a2.Nodes)
	}
}

func TestNetLoadAwareCandidates(t *testing.T) {
	snap := synthSnapshot(uniformLoads(6, 0.5))
	req := Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}
	best, cands, err := NetLoadAware{}.AllocateExplainModel(NewCostModel(snap, PaperWeights(), false), req)
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 1 generates one candidate per live node.
	if len(cands) != 6 {
		t.Fatalf("%d candidates, want 6", len(cands))
	}
	for _, c := range cands {
		// Every candidate includes its start node.
		found := false
		for _, n := range c.Nodes {
			if n == c.Start {
				found = true
			}
		}
		if !found {
			t.Fatalf("candidate of %d does not contain its start: %v", c.Start, c.Nodes)
		}
		// Every candidate satisfies the request.
		total := 0
		for _, p := range c.Procs {
			total += p
		}
		if total != 8 {
			t.Fatalf("candidate procs = %d", total)
		}
		// Best has minimal total load.
		if c.TotalLoad < best.TotalLoad {
			t.Fatalf("candidate %d beats 'best': %g < %g", c.Start, c.TotalLoad, best.TotalLoad)
		}
	}
}

func TestNetLoadAwareDeterministicGivenSnapshot(t *testing.T) {
	snap := synthSnapshot([]float64{1, 0.2, 0.7, 0.1, 2, 0.4, 0.9, 0.3})
	req := Request{Procs: 12, PPN: 4, Alpha: 0.4, Beta: 0.6}
	a1, err := Allocate(NetLoadAware{}, snap, req, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Allocate(NetLoadAware{}, snap, req, rng.New(999))
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Nodes) != len(a2.Nodes) {
		t.Fatal("NLA depends on random stream")
	}
	for i := range a1.Nodes {
		if a1.Nodes[i] != a2.Nodes[i] {
			t.Fatal("NLA depends on random stream")
		}
	}
}

func TestRescaleMean(t *testing.T) {
	m := []float64{2, 4, 6}
	rescaleMeanDense(m)
	if sum := m[0] + m[1] + m[2]; math.Abs(sum-3) > 1e-12 {
		t.Fatalf("rescaled sum %g, want n (mean 1)", sum)
	}
	if !(m[0] < m[1] && m[1] < m[2]) {
		t.Fatal("rescaling broke ordering")
	}
	rescaleMeanDense(nil) // must not panic
	// The pair mean runs over the upper triangle only: pairs (0,1)=1 and
	// (0,2)=(1,2)=4 have mean 3, whatever the mirrored lower triangle holds.
	nl := []float64{0, 1, 4, 1, 0, 4, 4, 4, 0}
	rescaleMeanPairDense(nl, 3)
	if nl[1] != 1.0/3 || nl[5] != 4.0/3 || nl[3] != 1.0/3 {
		t.Fatalf("pair rescale = %v, want mean 1 over the three pairs", nl)
	}
	zero := []float64{0, 0, 0, 0}
	rescaleMeanPairDense(zero, 2) // mean 0: must not divide by zero
	if zero[1] != 0 {
		t.Fatal("zero matrix mutated")
	}
}

func TestMonitoredLivehosts(t *testing.T) {
	snap := synthSnapshot(uniformLoads(4, 1))
	snap.Livehosts = []int{3, 1, 9} // 9 has no state
	ids := MonitoredLivehosts(snap)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("MonitoredLivehosts = %v", ids)
	}
}

func TestStaleAfter(t *testing.T) {
	snap := synthSnapshot(uniformLoads(2, 1))
	if StaleAfter(snap, time.Minute) {
		t.Fatal("fresh snapshot reported stale")
	}
	snap.Taken = t0.Add(10 * time.Minute)
	if !StaleAfter(snap, time.Minute) {
		t.Fatal("old snapshot reported fresh")
	}
}

// TestPoliciesRobustOnRandomSnapshots fuzzes all policies with arbitrary
// (but structurally valid) snapshots: random loads, random subsets of
// measured pairs, heterogeneous hardware. Every policy must either return
// a valid allocation covering the request or a clean error — never panic,
// never a short or duplicated allocation.
func TestPoliciesRobustOnRandomSnapshots(t *testing.T) {
	r := rng.New(0xFEED)
	policies := allPolicies()
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(12) + 2
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = r.Range(0, 20)
		}
		snap := synthSnapshot(loads)
		// Randomly drop some pair measurements (never all).
		for key := range snap.Bandwidth {
			if r.Bool(0.2) && len(snap.Bandwidth) > 1 {
				delete(snap.Bandwidth, key)
			}
		}
		// Random hardware heterogeneity.
		for id, na := range snap.Nodes {
			if r.Bool(0.3) {
				na.Cores = 8
				na.FreqGHz = 2.8
				snap.Nodes[id] = na
			}
		}
		procs := r.Intn(4*n) + 1
		ppn := r.Intn(5) // 0 = Equation 3 capacity
		req := Request{Procs: procs, PPN: ppn, Alpha: 0.3, Beta: 0.7}
		for _, pol := range policies {
			a, err := Allocate(pol, snap, req, r.Split())
			if err != nil {
				continue // clean refusal is acceptable
			}
			if a.TotalProcs() != procs {
				t.Fatalf("trial %d %s: allocated %d of %d", trial, pol.Name(), a.TotalProcs(), procs)
			}
			seen := map[int]bool{}
			for _, node := range a.Nodes {
				if seen[node] {
					t.Fatalf("trial %d %s: node %d duplicated", trial, pol.Name(), node)
				}
				seen[node] = true
				if node < 0 || node >= n {
					t.Fatalf("trial %d %s: node %d out of range", trial, pol.Name(), node)
				}
				if a.Procs[node] <= 0 {
					t.Fatalf("trial %d %s: node %d with %d procs", trial, pol.Name(), node, a.Procs[node])
				}
			}
		}
	}
}

// TestPoliciesWithEquation3Capacity exercises the ppn=0 path: capacities
// come from Equation 3 and depend on each node's load.
func TestPoliciesWithEquation3Capacity(t *testing.T) {
	// 12-core nodes with load 3.2 -> pc = 12 - ceil(3.2)%12 = 8.
	snap := synthSnapshot(uniformLoads(4, 3.2))
	r := rng.New(9)
	for _, pol := range allPolicies() {
		a, err := Allocate(pol, snap, Request{Procs: 16, Alpha: 0.5, Beta: 0.5}, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if a.TotalProcs() != 16 {
			t.Fatalf("%s allocated %d", pol.Name(), a.TotalProcs())
		}
		// 16 procs at 8 per node = 2 nodes.
		if len(a.Nodes) != 2 {
			t.Fatalf("%s used %d nodes (pc should be 8)", pol.Name(), len(a.Nodes))
		}
	}
}

func TestReservingPolicySpreadsBackToBackAllocations(t *testing.T) {
	// Uniform snapshot: plain load-aware picks the same nodes every time;
	// with reservations, consecutive grants must diverge.
	snap := synthSnapshot(uniformLoads(8, 0.5))
	req := Request{Procs: 8, PPN: 4, Alpha: 0.7, Beta: 0.3}
	r := rng.New(1)

	plain := LoadAware{}
	a1, err := Allocate(plain, snap, req, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Allocate(plain, snap, req, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if !sameNodeSet(a1.Nodes, a2.Nodes) {
		t.Fatal("plain load-aware should repeat itself on a frozen snapshot")
	}

	res := NewReservingPolicy(LoadAware{}, time.Minute)
	b1, err := Allocate(res, snap, req, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Allocate(res, snap, req, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range b2.Nodes {
		for _, m := range b1.Nodes {
			if n == m {
				t.Fatalf("reserving policy reused node %d: %v then %v", n, b1.Nodes, b2.Nodes)
			}
		}
	}
	if b1.Policy != "load-aware+reserve" {
		t.Fatalf("policy name %q", b1.Policy)
	}
	if res.Outstanding(snap.Taken) != 2 {
		t.Fatalf("outstanding %d", res.Outstanding(snap.Taken))
	}
}

func TestReservingPolicyExpiry(t *testing.T) {
	snap := synthSnapshot(uniformLoads(4, 0.5))
	res := NewReservingPolicy(LoadAware{}, time.Minute)
	r := rng.New(2)
	if _, err := Allocate(res, snap, Request{Procs: 8, PPN: 4}, r.Split()); err != nil {
		t.Fatal(err)
	}
	// Two minutes later the reservation is gone and the original snapshot
	// decides again.
	later := snap.Clone()
	later.Taken = snap.Taken.Add(2 * time.Minute)
	if _, err := Allocate(res, later, Request{Procs: 8, PPN: 4}, r.Split()); err != nil {
		t.Fatal(err)
	}
	if got := res.Outstanding(later.Taken); got != 1 {
		t.Fatalf("outstanding after expiry %d, want 1 (only the new grant)", got)
	}
	// Charging never mutates the caller's snapshot.
	if snap.Nodes[0].CPULoad.M1 != 0.5 {
		t.Fatal("reserving policy mutated the input snapshot")
	}
}

func TestReservingPolicyRequiresInner(t *testing.T) {
	p := &ReservingPolicy{}
	if _, err := Allocate(p, synthSnapshot(uniformLoads(2, 1)), Request{Procs: 2}, rng.New(1)); err == nil {
		t.Fatal("nil inner accepted")
	}
}

func sameNodeSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[int]bool{}
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return false
		}
	}
	return true
}
