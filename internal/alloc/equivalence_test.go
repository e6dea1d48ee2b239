package alloc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// refAllocateExplain is a frozen copy of the pre-dense-model heuristic:
// the map-keyed AllocateExplain exactly as the seed shipped it, kept
// here as the reference the CostModel/parallel path must match
// bit-for-bit. Do not "improve" this function — its value is that it
// never changes.
func refAllocateExplain(snap *metrics.Snapshot, req Request) (Candidate, []Candidate, error) {
	req, err := req.Validate()
	if err != nil {
		return Candidate{}, nil, err
	}
	ids := MonitoredLivehosts(snap)
	if len(ids) == 0 {
		return Candidate{}, nil, fmt.Errorf("alloc: net-load-aware: no live monitored nodes")
	}
	cl, err := ComputeLoadsOpt(snap, ids, req.Weights, req.UseForecast)
	if err != nil {
		return Candidate{}, nil, err
	}
	nl, err := NetworkLoads(snap, ids, req.Weights)
	if err != nil {
		return Candidate{}, nil, err
	}
	RescaleMeanNode(cl)
	RescaleMeanPair(nl)
	caps := capacity(snap, ids, req)

	candidates := make([]Candidate, 0, len(ids))
	for _, v := range ids {
		candidates = append(candidates, refGenerate(v, ids, cl, nl, caps, req))
	}

	sumC, sumN := 0.0, 0.0
	for _, c := range candidates {
		sumC += c.ComputeCost
		sumN += c.NetworkCost
	}
	bestIdx := -1
	minTotal := math.Inf(1)
	for i := range candidates {
		c := &candidates[i]
		cNorm, nNorm := 0.0, 0.0
		if sumC > 0 {
			cNorm = c.ComputeCost / sumC
		}
		if sumN > 0 {
			nNorm = c.NetworkCost / sumN
		}
		c.TotalLoad = req.Alpha*cNorm + req.Beta*nNorm
		if c.TotalLoad < minTotal {
			minTotal = c.TotalLoad
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return Candidate{}, nil, fmt.Errorf("alloc: net-load-aware: no candidate produced")
	}
	return candidates[bestIdx], candidates, nil
}

func refGenerate(v int, ids []int, cl map[int]float64, nl map[metrics.PairKey]float64, caps map[int]int, req Request) Candidate {
	addCost := make(map[int]float64, len(ids))
	for _, u := range ids {
		if u == v {
			addCost[u] = 0
			continue
		}
		addCost[u] = req.Alpha*cl[u] + req.Beta*nl[metrics.Pair(v, u)]
	}
	order := append([]int(nil), ids...)
	sort.Slice(order, func(i, j int) bool {
		ci, cj := addCost[order[i]], addCost[order[j]]
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	nodes, procs := fill(order, caps, req.Procs)

	cand := Candidate{Start: v, Nodes: nodes, Procs: procs}
	for _, n := range nodes {
		cand.ComputeCost += cl[n]
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			cand.NetworkCost += nl[metrics.Pair(nodes[i], nodes[j])]
		}
	}
	return cand
}

// What follows is the seed's map-keyed formulation of Equations 1-3 and
// the fill step, moved here when its last production caller
// (the snapshot-taking baselines) went dense. It is the other half of the
// frozen reference above — refAllocateExplain is built on it — and the
// unit tests of the equations still read it. Like the reference, it does
// not change.

// ComputeLoads evaluates Equation 1 for every node in ids using the SAW
// method over the snapshot's published attributes. The result maps node ID
// to CL_v; lower is better. Nodes missing from the snapshot are an error —
// callers must pre-filter to monitored livehosts.
func ComputeLoads(snap *metrics.Snapshot, ids []int, w Weights) (map[int]float64, error) {
	return ComputeLoadsOpt(snap, ids, w, false)
}

// ComputeLoadsOpt is ComputeLoads with forecasting: when useForecast is
// true and a node publishes NWS-style forecasts, the CPU-load and
// data-flow-rate attributes are priced at their predicted next values
// instead of the windowed means — ranking nodes by where their load is
// *going* (§2's Network Weather Service idea applied to Equation 1).
func ComputeLoadsOpt(snap *metrics.Snapshot, ids []int, w Weights, useForecast bool) (map[int]float64, error) {
	if len(ids) == 0 {
		return map[int]float64{}, nil
	}
	rows, err := attrMatrix(snap, ids, useForecast)
	if err != nil {
		return nil, err
	}
	costs, err := sawFromRows(w, rows)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(ids))
	for i, id := range ids {
		out[id] = costs[i]
	}
	return out, nil
}

// NetworkLoads evaluates Equation 2 for every unordered pair of ids:
// NL(u,v) = w_lt·LT_norm + w_bw·(peak−avail)_norm, with each term
// sum-normalized over all pairs, exactly mirroring the compute-load
// normalization. Pairs with no measurement are priced at the worst
// observed latency and complement-bandwidth (a never-measured link is
// assumed bad, not free).
func NetworkLoads(snap *metrics.Snapshot, ids []int, w Weights) (map[metrics.PairKey]float64, error) {
	n := len(ids)
	if n*(n-1)/2 == 0 {
		return map[metrics.PairKey]float64{}, nil
	}
	dense, err := networkLoadsDense(snap, newComputeModel(snap, ids, w, false))
	if err != nil {
		return nil, err
	}
	out := make(map[metrics.PairKey]float64, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out[metrics.Pair(ids[i], ids[j])] = dense[i*n+j]
		}
	}
	return out, nil
}

// RescaleMeanNode rescales node costs to mean 1 in place. The paper
// sum-normalizes compute load over |V| nodes and network load over
// O(|V|²) pairs, which puts the two on incomparable scales (~1/V vs
// ~2/V²) and would silently void the α/β balance of Algorithm 1's
// addition cost. Rescaling both to unit mean is size-invariant and
// preserves each metric's ordering, so the weighted combination behaves
// as Equation 4 intends regardless of cluster size.
func RescaleMeanNode(costs map[int]float64) {
	if len(costs) == 0 {
		return
	}
	// Sum in sorted key order: float addition is order-sensitive, and map
	// iteration order would make equal inputs produce subtly different
	// scales across runs, breaking reproducibility.
	keys := make([]int, 0, len(costs))
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	sum := 0.0
	for _, k := range keys {
		sum += costs[k]
	}
	mean := sum / float64(len(costs))
	if mean == 0 {
		return
	}
	for _, k := range keys {
		costs[k] /= mean
	}
}

// RescaleMeanPair rescales pair costs to mean 1 in place (see
// RescaleMeanNode).
func RescaleMeanPair(costs map[metrics.PairKey]float64) {
	if len(costs) == 0 {
		return
	}
	keys := make([]metrics.PairKey, 0, len(costs))
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	sum := 0.0
	for _, k := range keys {
		sum += costs[k]
	}
	mean := sum / float64(len(costs))
	if mean == 0 {
		return
	}
	for _, k := range keys {
		costs[k] /= mean
	}
}

// capacity returns each node's process capacity under the request.
func capacity(snap *metrics.Snapshot, ids []int, req Request) map[int]int {
	caps := make(map[int]int, len(ids))
	for _, id := range ids {
		caps[id] = EffectiveProcs(snap.Nodes[id], req.PPN)
	}
	return caps
}

// fill assigns req.Procs processes over the ordered node list, each node
// taking up to its capacity; if capacity runs out the remainder is
// distributed round-robin over the selected nodes (lines 12-13 of
// Algorithm 1 generalized to every policy so all policies satisfy every
// request). It returns the allocation's node order and process map.
func fill(order []int, caps map[int]int, procs int) ([]int, map[int]int) {
	assigned := make(map[int]int)
	var used []int
	remaining := procs
	for _, n := range order {
		if remaining <= 0 {
			break
		}
		take := caps[n]
		if take > remaining {
			take = remaining
		}
		if take <= 0 {
			continue
		}
		assigned[n] = take
		used = append(used, n)
		remaining -= take
	}
	for remaining > 0 && len(used) > 0 {
		for _, n := range used {
			if remaining == 0 {
				break
			}
			assigned[n]++
			remaining--
		}
	}
	return used, assigned
}

// perm returns a random permutation of [0, n).
func perm(r *rng.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// randomEquivSnapshot builds a seeded random snapshot with heterogeneous
// hardware, non-contiguous node IDs, optional forecasts, and a fraction
// of pair measurements missing (pricing them at the worst observed —
// both paths must agree there too).
func randomEquivSnapshot(r *rng.Rand, n int) *metrics.Snapshot {
	snap := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	var ids []int
	id := 0
	for i := 0; i < n; i++ {
		id += 1 + r.Intn(3) // non-contiguous, unsorted insertion order below
		ids = append(ids, id)
	}
	// Publish livehosts in shuffled order; MonitoredLivehosts re-sorts.
	order := perm(r, n)
	for _, k := range order {
		nid := ids[k]
		snap.Livehosts = append(snap.Livehosts, nid)
		cores := 4 * (1 + r.Intn(4)) // 4..16
		na := metrics.NodeAttrs{
			NodeID: nid, Hostname: fmt.Sprintf("n%d", nid), Timestamp: t0,
			Cores: cores, FreqGHz: r.Range(2.0, 5.0), TotalMemMB: 8192 * float64(1+r.Intn(3)),
			Users: r.Intn(4),
		}
		load := r.Range(0, float64(cores)+4) // sometimes above core count
		na.CPULoad = stats.Windowed{M1: load, M5: load * r.Range(0.5, 1.5), M15: load * r.Range(0.5, 1.5)}
		na.CPUUtilPct = stats.Windowed{M1: r.Range(0, 100), M5: r.Range(0, 100), M15: r.Range(0, 100)}
		na.FlowRateBps = stats.Windowed{M1: r.Range(0, 5e7), M5: r.Range(0, 5e7), M15: r.Range(0, 5e7)}
		na.AvailMemMB = stats.Windowed{M1: r.Range(1000, na.TotalMemMB), M5: 9000, M15: 9000}
		if r.Bool(0.5) {
			na.CPULoadForecast = &metrics.Forecast{Value: r.Range(0, float64(cores)), Method: "ar"}
		}
		if r.Bool(0.3) {
			na.FlowRateForecast = &metrics.Forecast{Value: r.Range(0, 5e7), Method: "mean"}
		}
		snap.Nodes[nid] = na
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(0.15) {
				continue // unmeasured pair: priced at worst observed
			}
			key := metrics.Pair(ids[i], ids[j])
			lat := time.Duration(r.Range(50, 800)) * time.Microsecond
			peak := r.Range(100e6, 130e6)
			snap.Latency[key] = metrics.PairLatency{
				U: key.U, V: key.V, Timestamp: t0, Last: lat, Mean1: lat,
			}
			snap.Bandwidth[key] = metrics.PairBandwidth{
				U: key.U, V: key.V, Timestamp: t0,
				AvailBps: r.Range(10e6, peak), PeakBps: peak,
			}
		}
	}
	return snap
}

// TestAllocateExplainEquivalence proves the dense CostModel + parallel
// candidate path is bit-identical to the seed's map-keyed sequential
// path: same best candidate, same candidate ordering, same TotalLoad /
// ComputeCost / NetworkCost floats, over ≥20 seeded random snapshots
// varying n, α/β, PPN, and forecast pricing.
func TestAllocateExplainEquivalence(t *testing.T) {
	alphas := []float64{0, 0.3, 0.5, 0.7, 1}
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed * 7919)
		n := 4 + r.Intn(37) // 4..40 nodes
		snap := randomEquivSnapshot(r, n)
		alpha := alphas[int(seed)%len(alphas)]
		req := Request{
			Procs:       1 + r.Intn(4*n),
			PPN:         r.Intn(5), // 0..4; 0 = Equation 3 capacity
			Alpha:       alpha,
			Beta:        1 - alpha,
			UseForecast: seed%2 == 0,
		}
		wantBest, wantCands, wantErr := refAllocateExplain(snap, req)
		gotBest, gotCands, gotErr := explainOnSnapshot(snap, req)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: error mismatch: ref=%v new=%v", seed, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(wantBest, gotBest) {
			t.Errorf("seed %d (n=%d req=%+v): best candidate mismatch:\nref: %+v\nnew: %+v",
				seed, n, req, wantBest, gotBest)
		}
		if !reflect.DeepEqual(wantCands, gotCands) {
			t.Errorf("seed %d (n=%d): candidate list mismatch (%d vs %d entries)",
				seed, n, len(wantCands), len(gotCands))
			for i := range wantCands {
				if i < len(gotCands) && !reflect.DeepEqual(wantCands[i], gotCands[i]) {
					t.Errorf("  candidate[%d]:\n  ref: %+v\n  new: %+v", i, wantCands[i], gotCands[i])
				}
			}
		}
	}
}

// explainOnSnapshot prices snap under req and runs the explain path over
// the dense model.
func explainOnSnapshot(snap *metrics.Snapshot, req Request) (Candidate, []Candidate, error) {
	vreq, err := req.Validate()
	if err != nil {
		return Candidate{}, nil, err
	}
	return NetLoadAware{}.AllocateExplainModel(NewCostModel(snap, vreq.Weights, vreq.UseForecast), req)
}

// parallelSide is the dense node count at which a full candidate set
// reaches minParallelWork.
const parallelSide = 128

// TestAllocateExplainParallelEquivalence forces the worker-pool branch
// (GOMAXPROCS > 1 and n² ≥ minParallelWork) and checks the fan-out
// still matches the reference exactly. Under -race this also exercises
// the pool for data races.
func TestAllocateExplainParallelEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for seed := uint64(100); seed < 105; seed++ {
		r := rng.New(seed)
		n := parallelSide + 8 + r.Intn(16)
		snap := randomEquivSnapshot(r, n)
		req := Request{Procs: n, PPN: 1 + r.Intn(3), Alpha: 0.4, Beta: 0.6}
		wantBest, wantCands, err := refAllocateExplain(snap, req)
		if err != nil {
			t.Fatalf("seed %d: reference failed: %v", seed, err)
		}
		gotBest, gotCands, err := explainOnSnapshot(snap, req)
		if err != nil {
			t.Fatalf("seed %d: dense path failed: %v", seed, err)
		}
		if !reflect.DeepEqual(wantBest, gotBest) || !reflect.DeepEqual(wantCands, gotCands) {
			t.Fatalf("seed %d (n=%d): parallel path diverged from reference", seed, n)
		}
	}
}

// TestAllocateModelMatchesExplainWinner pins the winner-only path to the
// explain path: AllocateModel records costs per seed and regenerates the
// winner instead of materialising every candidate, and must return the
// explain winner's nodes, process map and TotalLoad bit for bit — on the
// sequential and the worker-pool branch, and on errors.
func TestAllocateModelMatchesExplainWinner(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	p := NetLoadAware{}
	alphas := []float64{0, 0.3, 0.5, 0.7, 1}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed * 104729)
		n := 2 + r.Intn(parallelSide+40) // both sides of the pool switch
		snap := randomEquivSnapshot(r, n)
		alpha := alphas[int(seed)%len(alphas)]
		req := Request{
			Procs:       1 + r.Intn(6*n), // past capacity too: the round-robin remainder
			PPN:         r.Intn(5),
			Alpha:       alpha,
			Beta:        1 - alpha,
			UseForecast: seed%2 == 0,
		}
		validated, err := req.Validate()
		if err != nil {
			t.Fatal(err)
		}
		m := NewCostModel(snap, validated.Weights, validated.UseForecast)
		best, _, wantErr := p.AllocateExplainModel(m, req)
		got, gotErr := p.AllocateModel(m, req, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: error mismatch: explain=%v model=%v", seed, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		want := Allocation{Policy: p.Name(), Nodes: best.Nodes, Procs: best.Procs, TotalLoad: best.TotalLoad}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d (n=%d req=%+v):\nexplain winner: %+v\nAllocateModel:  %+v", seed, n, req, want, got)
		}
	}
}

// TestCostModelMatchesMapViews cross-checks the dense CL/NL arrays
// against the public map-keyed views on a random snapshot.
func TestCostModelMatchesMapViews(t *testing.T) {
	r := rng.New(42)
	snap := randomEquivSnapshot(r, 17)
	ids := MonitoredLivehosts(snap)
	w := PaperWeights()
	m := NewCostModel(snap, w, false)
	if m.Len() != len(ids) {
		t.Fatalf("model has %d nodes, want %d", m.Len(), len(ids))
	}
	cl, err := ComputeLoadsOpt(snap, ids, w, false)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NetworkLoads(snap, ids, w)
	if err != nil {
		t.Fatal(err)
	}
	RescaleMeanPair(nl) // the model keeps only the mean-1 matrix
	for i, id := range ids {
		if m.IDs[i] != id {
			t.Fatalf("index %d maps to ID %d, want %d", i, m.IDs[i], id)
		}
		if m.CL[i] != cl[id] {
			t.Errorf("CL[%d] = %v, map says %v", i, m.CL[i], cl[id])
		}
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			want := nl[metrics.Pair(ids[i], ids[j])]
			if got := m.PairNLUnit(i, j); got != want {
				t.Errorf("NLUnit(%d,%d) = %v, map says %v", ids[i], ids[j], got, want)
			}
		}
	}
}

// mutateDynamicAttrs rewrites the dynamic attributes of node id in snap
// (in place), leaving the static hardware and the network matrices
// untouched — the shape of change UpdateNodes is allowed to absorb.
func mutateDynamicAttrs(r *rng.Rand, snap *metrics.Snapshot, id int) {
	na := snap.Nodes[id]
	load := r.Range(0, float64(na.Cores)+4)
	na.CPULoad = stats.Windowed{M1: load, M5: load * r.Range(0.5, 1.5), M15: load * r.Range(0.5, 1.5)}
	na.CPUUtilPct = stats.Windowed{M1: r.Range(0, 100), M5: r.Range(0, 100), M15: r.Range(0, 100)}
	na.FlowRateBps = stats.Windowed{M1: r.Range(0, 5e7), M5: r.Range(0, 5e7), M15: r.Range(0, 5e7)}
	na.AvailMemMB = stats.Windowed{M1: r.Range(1000, na.TotalMemMB), M5: 9000, M15: 9000}
	na.Users = r.Intn(4)
	na.Timestamp = na.Timestamp.Add(time.Second)
	if r.Bool(0.5) {
		na.CPULoadForecast = &metrics.Forecast{Value: r.Range(0, float64(na.Cores)), Method: "ar"}
	} else {
		na.CPULoadForecast = nil
	}
	if r.Bool(0.3) {
		na.FlowRateForecast = &metrics.Forecast{Value: r.Range(0, 5e7), Method: "mean"}
	} else {
		na.FlowRateForecast = nil
	}
	snap.Nodes[id] = na
}

// requireModelEqual asserts two cost models agree bit-for-bit on every
// array the allocator reads.
func requireModelEqual(t *testing.T, tag string, got, want *CostModel) {
	t.Helper()
	if got.clErr != nil || want.clErr != nil {
		t.Fatalf("%s: clErr got=%v want=%v", tag, got.clErr, want.clErr)
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"IDs", got.IDs, want.IDs},
		{"CL", got.CL, want.CL},
		{"CLUnit", got.CLUnit, want.CLUnit},
		{"NLUnit", got.NLUnit, want.NLUnit},
		{"Cores", got.Cores, want.Cores},
		{"LoadM1", got.LoadM1, want.LoadM1},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			t.Fatalf("%s: %s diverged:\nincremental: %v\nrebuild:     %v", tag, f.name, f.a, f.b)
		}
	}
}

// TestCostModelUpdateNodesMatchesRebuild chains randomized in-place
// updates — each step mutates the dynamic attributes of k nodes and
// applies UpdateNodes — and checks every intermediate model is
// bit-identical to NewCostModel rebuilt from scratch on that snapshot.
func TestCostModelUpdateNodesMatchesRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed * 104729)
		n := 5 + r.Intn(30)
		snap := randomEquivSnapshot(r, n)
		useForecast := seed%2 == 0
		w := PaperWeights()
		m := NewCostModel(snap, w, useForecast)
		if m.clErr != nil {
			t.Fatalf("seed %d: base model: %v", seed, m.clErr)
		}
		for step := 0; step < 8; step++ {
			next := snap.Clone()
			next.Taken = next.Taken.Add(time.Second)
			k := 1 + r.Intn(4)
			var changed []int
			for i := 0; i < k; i++ {
				id := m.IDs[r.Intn(len(m.IDs))]
				mutateDynamicAttrs(r, next, id)
				changed = append(changed, id)
			}
			u, ok := m.UpdateNodes(next, changed)
			if !ok {
				t.Fatalf("seed %d step %d: UpdateNodes refused a pure dynamic-attr change", seed, step)
			}
			requireModelEqual(t, fmt.Sprintf("seed %d step %d", seed, step),
				u, NewCostModel(next, w, useForecast))
			snap, m = next, u
		}
	}
}

// TestCostModelUpdateNodesFallsBack pins the conditions under which the
// incremental path must refuse and force a full rebuild.
func TestCostModelUpdateNodesFallsBack(t *testing.T) {
	r := rng.New(7)
	snap := randomEquivSnapshot(r, 10)
	w := PaperWeights()
	m := NewCostModel(snap, w, false)

	// Unknown node ID.
	if _, ok := m.UpdateNodes(snap.Clone(), []int{999999}); ok {
		t.Fatal("UpdateNodes accepted a node outside the model")
	}

	// Changed node missing from the new snapshot.
	gone := snap.Clone()
	delete(gone.Nodes, m.IDs[0])
	if _, ok := m.UpdateNodes(gone, []int{m.IDs[0]}); ok {
		t.Fatal("UpdateNodes accepted a node with no published state")
	}

	// Membership change: a node died, the live set differs.
	died := snap.Clone()
	died.Livehosts = died.Livehosts[1:]
	if _, ok := m.UpdateNodes(died, []int{m.IDs[1]}); ok {
		t.Fatal("UpdateNodes accepted a changed live set")
	}

	// Broken base model (no attribute rows) can never update in place.
	broken := &CostModel{Weights: w}
	if _, ok := broken.UpdateNodes(snap, nil); ok {
		t.Fatal("UpdateNodes ran on a model with no attrRows")
	}
}
