package alloc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// oracle is the paper's pipeline written once, naively, in node-ID
// space: Equation 1 (SAW, column by column), Equation 2 (one nominal
// peak for the whole network, unmeasured pairs at the worst measured
// values), the mean-1 rescale of both, Equation 3, Algorithm 1 (sort
// every node by (addition cost, ID), fill to capacity, deal the
// remainder round-robin one process at a time), Algorithm 2 (normalise
// over the starts, strict < argmin) and the three baselines. It calls no
// pricing code of this package or of internal/stats, and it sums in the
// orders DESIGN.md §7 documents — nodes by ascending ID, pairs by
// (U,V), a candidate's costs in selection order, Algorithm 2 in start
// order — so the fast paths that promise bit-identity are held to it
// exactly. Every product is rounded before it is added (float64(...)),
// which is what the compiler does on amd64 anyway.
type oracle struct {
	ids    []int // monitored livehosts, ascending
	nodes  map[int]metrics.NodeAttrs
	cl     map[int]float64 // Equation 1
	clUnit map[int]float64 // Equation 1 at mean 1
	nlUnit map[metrics.PairKey]float64
	nlErr  error // no pair measured
}

func newOracle(snap *metrics.Snapshot, w Weights) *oracle {
	o := &oracle{nodes: snap.Nodes, cl: map[int]float64{}, clUnit: map[int]float64{},
		nlUnit: map[metrics.PairKey]float64{}}
	for _, id := range snap.Livehosts {
		if _, ok := snap.Nodes[id]; ok {
			o.ids = append(o.ids, id)
		}
	}
	sort.Ints(o.ids)
	n := len(o.ids)

	// Equation 1: sum-normalise each attribute over the nodes, complement
	// the maximised ones against their normalised maximum, weight, add.
	mean := func(w stats.Windowed) float64 { return (w.M1 + w.M5 + w.M15) / 3 }
	rows := map[int][8]float64{}
	for _, id := range o.ids {
		na := snap.Nodes[id]
		rows[id] = [8]float64{mean(na.CPULoad), mean(na.CPUUtilPct), mean(na.FlowRateBps), mean(na.AvailMemMB),
			float64(na.Cores), na.FreqGHz, na.TotalMemMB, float64(na.Users)}
	}
	weights := [8]float64{w.CPULoad, w.CPUUtil, w.FlowRate, w.AvailMem, w.Cores, w.Freq, w.TotalMem, w.Users}
	maximize := [8]bool{false, false, false, true, true, true, true, false}
	for c := range weights {
		sum, peak := 0.0, 0.0
		for _, id := range o.ids {
			sum += rows[id][c]
		}
		norm := map[int]float64{}
		for k, id := range o.ids {
			if sum != 0 {
				norm[id] = rows[id][c] / sum
			}
			if k == 0 || norm[id] > peak {
				peak = norm[id]
			}
		}
		for _, id := range o.ids {
			x := norm[id]
			if maximize[c] {
				x = peak - x
			}
			o.cl[id] += float64(weights[c] * x)
		}
	}
	sumCL := 0.0
	for _, id := range o.ids {
		sumCL += o.cl[id]
	}
	for _, id := range o.ids {
		o.clUnit[id] = o.cl[id]
		if m := sumCL / float64(n); m != 0 {
			o.clUnit[id] = o.cl[id] / m
		}
	}

	// Equation 2: latency and peak − available bandwidth per pair, each
	// sum-normalised over all pairs; a pair without both measurements is
	// priced at the worst measured values.
	var pairs []metrics.PairKey
	peak := 0.0
	for i, u := range o.ids {
		for _, v := range o.ids[i+1:] {
			pairs = append(pairs, metrics.Pair(u, v))
			if _, p, ok := snap.BandwidthOf(u, v); ok && p > peak {
				peak = p
			}
		}
	}
	lat, cbw := map[metrics.PairKey]float64{}, map[metrics.PairKey]float64{}
	worstLat, worstCbw := 0.0, 0.0
	for _, k := range pairs {
		l, okL := snap.LatencyOf(k.U, k.V)
		avail, _, okB := snap.BandwidthOf(k.U, k.V)
		if okL && okB {
			lat[k], cbw[k] = l.Seconds(), max(peak-avail, 0)
			worstLat, worstCbw = max(worstLat, lat[k]), max(worstCbw, cbw[k])
		}
	}
	if len(pairs) > 0 && len(lat) == 0 {
		o.nlErr = fmt.Errorf("oracle: no pair measured")
		return o
	}
	latSum, cbwSum := 0.0, 0.0
	for _, k := range pairs {
		if _, ok := lat[k]; !ok {
			lat[k], cbw[k] = worstLat, worstCbw
		}
		latSum += lat[k]
		cbwSum += cbw[k]
	}
	sumNL := 0.0
	for _, k := range pairs {
		latN, cbwN := 0.0, 0.0
		if latSum != 0 {
			latN = lat[k] / latSum
		}
		if cbwSum != 0 {
			cbwN = cbw[k] / cbwSum
		}
		o.nlUnit[k] = float64(w.Latency*latN) + float64(w.Bandwidth*cbwN)
		sumNL += o.nlUnit[k]
	}
	if m := sumNL / float64(len(pairs)); m != 0 {
		for _, k := range pairs {
			o.nlUnit[k] /= m
		}
	}
	return o
}

// nl is the mean-1 Equation 2 cost between nodes u and v; zero on the
// diagonal.
func (o *oracle) nl(u, v int) float64 {
	if u == v {
		return 0
	}
	return o.nlUnit[metrics.Pair(u, v)]
}

// caps is Equation 3 per node: pc = cores − ⌈load⌉ % cores, the ppn
// override when given, one slot for a node publishing no cores.
func (o *oracle) caps(req Request) map[int]int {
	caps := map[int]int{}
	for _, id := range o.ids {
		na := o.nodes[id]
		switch load := math.Ceil(max(na.CPULoad.M1, 0)); {
		case req.PPN > 0:
			caps[id] = req.PPN
		case na.Cores <= 0:
			caps[id] = 1
		default:
			caps[id] = na.Cores - int(load)%na.Cores
		}
	}
	return caps
}

// greedy is Algorithm 1's selection: every node of ids sorted by (cost,
// ID), then fillOrder.
func greedy(ids []int, cost map[int]float64, caps map[int]int, procs int) (nodes, counts []int) {
	order := slices.Clone(ids)
	sort.Slice(order, func(a, b int) bool {
		if ca, cb := cost[order[a]], cost[order[b]]; ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	return fillOrder(order, caps, procs)
}

// fillOrder takes each node of order in turn up to its capacity until
// procs are placed, then deals what no capacity covered over the taken
// nodes, one process at a time.
func fillOrder(order []int, caps map[int]int, procs int) (nodes, counts []int) {
	for _, id := range order {
		if take := min(caps[id], procs); take > 0 {
			nodes, counts = append(nodes, id), append(counts, take)
			procs -= take
		}
	}
	for k := 0; procs > 0 && len(counts) > 0; k = (k + 1) % len(counts) {
		counts[k]++
		procs--
	}
	return nodes, counts
}

// explain is Algorithms 1–2 seeded at each of starts (node IDs, in
// order) under caps: the index of the winner among the candidates, and
// the candidates with their costs.
func (o *oracle) explain(req Request, starts []int, caps map[int]int) (int, []Candidate, error) {
	switch {
	case len(o.ids) == 0:
		return 0, nil, fmt.Errorf("oracle: no nodes")
	case o.nlErr != nil:
		return 0, nil, o.nlErr
	}
	cands := make([]Candidate, len(starts))
	sumC, sumN := 0.0, 0.0
	for s, v := range starts {
		cost := map[int]float64{}
		for _, u := range o.ids {
			if u != v {
				cost[u] = float64(req.Alpha*o.clUnit[u]) + float64(req.Beta*o.nl(v, u))
			}
		}
		nodes, counts := greedy(o.ids, cost, caps, req.Procs)
		c := Candidate{Start: v, Nodes: nodes, Procs: map[int]int{}}
		for a, u := range nodes {
			c.Procs[u] = counts[a]
			c.ComputeCost += o.clUnit[u]
			for _, x := range nodes[a+1:] {
				c.NetworkCost += o.nl(u, x)
			}
		}
		cands[s] = c
		sumC += c.ComputeCost
		sumN += c.NetworkCost
	}
	best, minTotal := -1, math.Inf(1)
	for s := range cands {
		cNorm, nNorm := 0.0, 0.0
		if sumC > 0 {
			cNorm = cands[s].ComputeCost / sumC
		}
		if sumN > 0 {
			nNorm = cands[s].NetworkCost / sumN
		}
		cands[s].TotalLoad = float64(req.Alpha*cNorm) + float64(req.Beta*nNorm)
		if cands[s].TotalLoad < minTotal {
			best, minTotal = s, cands[s].TotalLoad
		}
	}
	if best < 0 {
		return 0, nil, fmt.Errorf("oracle: no candidate")
	}
	return best, cands, nil
}

// allocate is the oracle's answer for the paper policy named name,
// drawing from r exactly where that policy does.
func (o *oracle) allocate(name string, req Request, r *rng.Rand) (Allocation, error) {
	if len(o.ids) == 0 {
		return Allocation{}, fmt.Errorf("oracle: no nodes")
	}
	a := Allocation{Policy: name, Procs: map[int]int{}}
	var counts []int
	switch n, caps := len(o.ids), o.caps(req); name {
	case "random":
		order := slices.Clone(o.ids)
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		a.Nodes, counts = fillOrder(order, caps, req.Procs)
	case "sequential":
		var order []int
		for i, start := 0, r.Intn(n); i < n; i++ {
			order = append(order, o.ids[(start+i)%n])
		}
		a.Nodes, counts = fillOrder(order, caps, req.Procs)
	case "load-aware":
		a.Nodes, counts = greedy(o.ids, o.cl, caps, req.Procs)
		for _, id := range a.Nodes {
			a.TotalLoad += o.cl[id]
		}
	default:
		best, cands, err := o.explain(req, o.ids, caps)
		if err != nil {
			return Allocation{}, err
		}
		return Allocation{Policy: name, Nodes: cands[best].Nodes, Procs: cands[best].Procs, TotalLoad: cands[best].TotalLoad}, nil
	}
	for k, id := range a.Nodes {
		a.Procs[id] = counts[k]
	}
	return a, nil
}

// dense lists a per-node map in the oracle's (ascending ID) order.
func (o *oracle) dense(byID map[int]float64) []float64 {
	out := make([]float64, len(o.ids))
	for i, id := range o.ids {
		out[i] = byID[id]
	}
	return out
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// closeRel reports whether got is within 1e-9 of want, relative.
func closeRel(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

// oracleCase is one snapshot and request the hub runs its spokes on:
// every spoke, or only those named in spokes. workers > 0 runs the case
// at that GOMAXPROCS. forecast is the third argument the spokes pass to
// NewCostModel and NewCostModelSharded — the retired forecast flag, kept
// and ignored because the benchmark module passes it by position.
type oracleCase struct {
	name     string
	snap     *metrics.Snapshot
	req      Request
	seed     uint64
	workers  int
	spokes   []string
	forecast bool
}

// oracleCases are the hub's inputs: seeded hostile random snapshots of
// 2–40 live hosts with requests from one process to six per host; the
// tie-heavy line (identical nodes, so mirrored starts tie in Algorithm 2
// and equidistant nodes in Algorithm 1); and one snapshot of ≥ 136
// monitored nodes at GOMAXPROCS(4), which reaches the worker pool, for
// the two spokes that have one.
func oracleCases() []oracleCase {
	var cs []oracleCase
	alphas := []float64{0, 0.3, 0.5, 0.7, 1}
	for seed := uint64(1); seed <= 16; seed++ {
		r := rng.New(seed * 7919)
		n := 2 + r.Intn(39)
		snap := randomSnapshot(r, n, true)
		alpha := alphas[int(seed)%len(alphas)]
		req := Request{Procs: 1 + r.Intn(6*n), PPN: r.Intn(5), Alpha: alpha, Beta: 1 - alpha}
		cs = append(cs, oracleCase{name: fmt.Sprintf("random%d", seed), snap: snap, req: req, seed: seed})
	}
	line := synthSnapshot(uniformLoads(12, 0.5))
	cs = append(cs,
		oracleCase{name: "line-ppn", snap: line, req: Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}, seed: 1},
		oracleCase{name: "line-eq3", snap: line, req: Request{Procs: 30}, seed: 2},
		oracleCase{name: "line-over", snap: line, req: Request{Procs: 200, PPN: 2, Alpha: 0.7, Beta: 0.3}, seed: 3},
		oracleCase{name: "pool", snap: randomSnapshot(rng.New(136), 160, true),
			req: Request{Procs: 150, Alpha: 0.4, Beta: 0.6}, seed: 4, workers: 4,
			spokes: []string{"explain", "policies"}})

	// Where Algorithm 1's seed-alone step must not fire, so the scan
	// answers. zero-cl: the lowest node idles on the best hardware, so its
	// Equation 1 cost is exactly 0 and, at β = 0, it ties every seed's own
	// zero and wins the tie by position. neg-nl: a negative latency weight
	// makes NL entries < 0 (a negative published latency cannot: Equation
	// 2's normalisation refuses it). nan-nl: one NaN available bandwidth
	// makes every NL entry NaN, so at β = 0 every other addition cost is
	// NaN; single-node requests keep it to the argmin, where NaN has a
	// place, and 12 nodes keep the oracle's sort to insertion sort.
	zero := randomSnapshot(rng.New(31), 12, false)
	lowest := slices.Min(zero.Livehosts)
	na := zero.Nodes[lowest]
	na.CPULoad, na.CPUUtilPct, na.FlowRateBps = stats.Windowed{}, stats.Windowed{}, stats.Windowed{}
	na.AvailMemMB = stats.Windowed{M1: 1e6, M5: 1e6, M15: 1e6}
	na.Cores, na.FreqGHz, na.TotalMemMB, na.Users = 64, 9, 1e6, 0
	zero.Nodes[lowest] = na
	negLat := PaperWeights()
	negLat.Latency = -0.25
	nan := randomSnapshot(rng.New(37), 12, false)
	for k, pb := range nan.Bandwidth {
		if k.V == slices.Max(nan.Livehosts) {
			pb.AvailBps = math.NaN()
			nan.Bandwidth[k] = pb
		}
	}
	cs = append(cs,
		oracleCase{name: "zero-cl", snap: zero, req: Request{Procs: 3, PPN: 4, Alpha: 1}, seed: 5},
		oracleCase{name: "zero-cl-eq3", snap: zero, req: Request{Procs: 20, Alpha: 1}, seed: 6},
		oracleCase{name: "neg-nl", snap: randomSnapshot(rng.New(41), 20, false),
			req: Request{Procs: 6, PPN: 8, Alpha: 0.3, Beta: 0.7, Weights: negLat}, seed: 7},
		oracleCase{name: "nan-nl", snap: nan, req: Request{Procs: 4, PPN: 4, Alpha: 1}, seed: 8,
			spokes: []string{"explain", "constrained"}})
	return cs
}

// spokes are the fast paths the oracle checks, by name.
var spokes = map[string]func(t *testing.T, c oracleCase, o *oracle){
	"model": func(t *testing.T, c oracleCase, o *oracle) {
		checkModel(t, NewCostModel(c.snap, c.req.Weights, c.forecast), o, c.req)
	},
	"update":  spokeUpdate,
	"sharded": spokeSharded,
	"explain": func(t *testing.T, c oracleCase, o *oracle) {
		checkExplain(t, NewCostModel(c.snap, c.req.Weights, c.forecast), o, c.req)
	},
	"policies":    spokePolicies,
	"constrained": spokeConstrained,
	"one-shard":   spokeOneShard,
	"charge": func(t *testing.T, c oracleCase, o *oracle) {
		var even []int
		for i := 0; i < len(o.ids); i += 2 {
			even = append(even, i)
		}
		checkCharge(t, c.snap, c.forecast, nil)
		checkCharge(t, c.snap, c.forecast, even)
	},
}

// runOracleHub runs the named spokes (all of them when none are named)
// on every case whose name has the given prefix, with the ignored
// forecast argument false and true: the oracle reads only the running
// means, so both must match it.
func runOracleHub(t *testing.T, prefix string, names ...string) {
	if len(names) == 0 {
		for name := range spokes {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	priced, total := 0, 0
	for _, c := range oracleCases() {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		var err error
		if c.req, err = c.req.Validate(); err != nil {
			t.Fatal(err)
		}
		o := newOracle(c.snap, c.req.Weights)
		if total++; o.nlErr == nil && len(o.ids) > 1 {
			priced++
		}
		if c.workers > 0 && len(o.ids) < 136 {
			t.Fatalf("%s: %d monitored nodes, too few for the worker pool", c.name, len(o.ids))
		}
		for _, forecast := range []bool{false, true} {
			c := c
			c.forecast = forecast
			t.Run(fmt.Sprintf("%s/forecast=%v", c.name, forecast), func(t *testing.T) {
				if c.workers > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.workers))
				}
				for _, name := range names {
					if c.spokes != nil && !slices.Contains(c.spokes, name) {
						continue
					}
					t.Run(name, func(t *testing.T) { spokes[name](t, c, o) })
				}
			})
		}
	}
	if priced*4 < total*3 {
		t.Fatalf("only %d of %d cases price a network: generator too hostile", priced, total)
	}
}

// TestFastPathsMatchOracle is the hub: every fast path that prices
// Equations 1–3 or runs Algorithms 1–2 against the oracle.
//
//   - model: NewCostModel's IDs, CL, CLUnit, NLUnit (both triangles) and
//     Equation 3 capacities, exact.
//   - update: an 8-step UpdateNodes chain, exact at every step.
//   - sharded: NewCostModelSharded below its threshold exact, with its
//     options retained; above it, CL/CLUnit exact and every intra-shard
//     PairNLUnit within 1e-9 (the shard layer divides by a closed-form
//     mean instead of summing the matrix). Cross-shard pairs are an
//     aggregate by design: TestShardedQualityWithinBound bounds them.
//   - explain: AllocateExplainModel's winner and every candidate, exact.
//   - policies: AllocateModel of the four paper policies, same rng seed
//     on both sides, exact.
//   - constrained: AllocateConstrained with all starts and Equation 3
//     capacities, and with bounded starts and zeroed capacities, exact.
//   - charge: ChargeRanksAt (nil and subset cand), also after
//     RefreshAttrs, within 1e-9 of the oracle over ChargeRanks-charged
//     attributes (the row form charges the window mean, the snapshot
//     form each window).
//   - one-shard: the one-shard twin (twin_test.go), sharded with every
//     node in one shard against dense, on requests within free capacity.
func TestFastPathsMatchOracle(t *testing.T) { runOracleHub(t, "") }

// TestAllocateExplainEquivalence runs the hub's explain spoke alone.
func TestAllocateExplainEquivalence(t *testing.T) { runOracleHub(t, "", "explain") }

// TestAllocateExplainParallelEquivalence runs the explain and winner-only
// spokes on the case that reaches the worker pool; under -race it is
// the test that exercises the dense pool.
func TestAllocateExplainParallelEquivalence(t *testing.T) {
	runOracleHub(t, "pool", "explain", "policies")
}

// TestCostModelUpdateNodesMatchesRebuild runs the hub's UpdateNodes
// chain alone.
func TestCostModelUpdateNodesMatchesRebuild(t *testing.T) { runOracleHub(t, "", "update") }

// checkModel holds a model's IDs, Equation 1 costs, dense Equation 2
// matrix and Equation 3 capacities to the oracle's, bit for bit.
func checkModel(t *testing.T, m *CostModel, o *oracle, req Request) {
	t.Helper()
	if !slices.Equal(m.IDs, o.ids) {
		t.Fatalf("IDs %v, oracle %v", m.IDs, o.ids)
	}
	if m.CLErr() != nil || (m.NLErr() == nil) != (o.nlErr == nil) {
		t.Fatalf("errors CL %v NL %v, oracle NL %v", m.CLErr(), m.NLErr(), o.nlErr)
	}
	if !sameBits(m.CL, o.dense(o.cl)) || !sameBits(m.CLUnit, o.dense(o.clUnit)) {
		t.Fatalf("Equation 1:\nCL     %v\noracle %v\nCLUnit %v\noracle %v", m.CL, o.dense(o.cl), m.CLUnit, o.dense(o.clUnit))
	}
	if m.NLErr() == nil {
		for i, u := range o.ids {
			for j, v := range o.ids {
				if got, want := m.PairNLUnit(i, j), o.nl(u, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("NLUnit(%d,%d) = %v, oracle %v", u, v, got, want)
				}
			}
		}
	}
	caps := o.caps(req)
	for i, c := range m.caps(req) {
		if c != caps[o.ids[i]] {
			t.Fatalf("Equation 3 capacity of node %d = %d, oracle %d", o.ids[i], c, caps[o.ids[i]])
		}
	}
}

// checkExplain holds AllocateExplainModel on m to the oracle's explain.
func checkExplain(t *testing.T, m *CostModel, o *oracle, req Request) {
	t.Helper()
	best, cands, err := NetLoadAware{}.AllocateExplainModel(m, req)
	wantBest, wantCands, wantErr := o.explain(req, o.ids, o.caps(req))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error %v, oracle %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(cands, wantCands) {
		for i := range wantCands {
			if i < len(cands) && !reflect.DeepEqual(cands[i], wantCands[i]) {
				t.Errorf("candidate %d:\ngot    %+v\noracle %+v", i, cands[i], wantCands[i])
			}
		}
		t.Fatalf("%d candidates, oracle %d", len(cands), len(wantCands))
	}
	if !reflect.DeepEqual(best, wantCands[wantBest]) {
		t.Fatalf("winner %+v, oracle %+v", best, wantCands[wantBest])
	}
}

func spokeUpdate(t *testing.T, c oracleCase, o *oracle) {
	if len(o.ids) == 0 {
		return
	}
	r := rng.New(c.seed)
	snap, m := c.snap, NewCostModel(c.snap, c.req.Weights, c.forecast)
	for step := 0; step < 8; step++ {
		next := snap.Clone()
		next.Taken = next.Taken.Add(time.Second)
		var changed []int
		for k := 1 + r.Intn(4); k > 0; k-- {
			id := m.IDs[r.Intn(len(m.IDs))]
			mutateDynamicAttrs(r, next, id)
			changed = append(changed, id)
		}
		u, ok := m.UpdateNodes(next, changed)
		if !ok {
			t.Fatalf("step %d: UpdateNodes refused a pure dynamic-attribute change", step)
		}
		checkModel(t, u, newOracle(next, c.req.Weights), c.req)
		snap, m = next, u
	}
}

func spokeSharded(t *testing.T, c oracleCase, o *oracle) {
	below := ShardOptions{Threshold: DefaultShardThreshold}
	m := NewCostModelSharded(c.snap, c.req.Weights, c.forecast, below)
	if m.Sharded() || m.shardOpts != below {
		t.Fatalf("below the threshold: sharded=%v, options %+v", m.Sharded(), m.shardOpts)
	}
	checkModel(t, m, o, c.req)
	checkExplain(t, m, o, c.req)

	if len(o.ids) < 2 {
		return
	}
	m = NewCostModelSharded(c.snap, c.req.Weights, c.forecast, ShardOptions{Threshold: 2, MaxShardSize: 8})
	if !m.Sharded() || (m.NLErr() == nil) != (o.nlErr == nil) {
		t.Fatalf("above the threshold: sharded=%v, NL error %v, oracle %v", m.Sharded(), m.NLErr(), o.nlErr)
	}
	if !sameBits(m.CL, o.dense(o.cl)) || !sameBits(m.CLUnit, o.dense(o.clUnit)) {
		t.Fatal("sharded Equation 1 differs from the oracle")
	}
	if m.NLErr() != nil {
		return
	}
	for i, u := range o.ids {
		for j, v := range o.ids {
			if i != j && m.shard.shardOf[i] == m.shard.shardOf[j] && !closeRel(m.PairNLUnit(i, j), o.nl(u, v)) {
				t.Fatalf("intra-shard NL(%d,%d) = %v, oracle %v", u, v, m.PairNLUnit(i, j), o.nl(u, v))
			}
		}
	}
}

func spokePolicies(t *testing.T, c oracleCase, o *oracle) {
	m := NewCostModel(c.snap, c.req.Weights, c.forecast)
	for _, p := range PaperPolicies() {
		got, err := p.AllocateModel(m, c.req, rng.New(c.seed))
		want, wantErr := o.allocate(p.Name(), c.req, rng.New(c.seed))
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v (%v), oracle %+v (%v)", p.Name(), got, err, want, wantErr)
		}
	}
}

func spokeConstrained(t *testing.T, c oracleCase, o *oracle) {
	n := len(o.ids)
	if n == 0 {
		return
	}
	m := NewCostModel(c.snap, c.req.Weights, c.forecast)
	eq3 := o.caps(c.req)
	caps := make([]int, n)
	for i, id := range o.ids {
		caps[i] = eq3[id]
	}
	r := rng.New(c.seed)
	zeroed := slices.Clone(caps)
	for i := range zeroed {
		if r.Bool(0.3) {
			zeroed[i] = 0
		}
	}
	// Each case's request, and the single-node one every capacity covers,
	// where Algorithm 1's seed-alone step answers whenever it applies.
	single := c.req
	single.Procs = 1
	var sc AllocScratch
	for _, tc := range []struct {
		req          Request
		caps, starts []int
	}{
		{c.req, caps, nil}, {c.req, zeroed, perm(r, n)[:min(4, n)]},
		{single, caps, nil}, {single, zeroed, perm(r, n)[:min(4, n)]},
	} {
		got, err := NetLoadAware{}.AllocateConstrained(m, tc.req, tc.caps, tc.starts, &sc)
		starts, capOf, pos := o.ids, map[int]int{}, map[int]int{}
		if tc.starts != nil {
			starts = nil
			for _, s := range tc.starts {
				starts = append(starts, o.ids[s])
			}
		}
		for i, id := range o.ids {
			capOf[id], pos[id] = tc.caps[i], i
		}
		best, cands, wantErr := o.explain(tc.req, starts, capOf)
		if wantErr == nil && len(cands[best].Nodes) == 0 {
			wantErr = fmt.Errorf("oracle: no capacity")
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("procs %d starts %v: error %v, oracle %v", tc.req.Procs, tc.starts, err, wantErr)
		}
		if err != nil {
			continue
		}
		w := cands[best]
		want := ConstrainedAlloc{Start: pos[w.Start], ComputeCost: w.ComputeCost, NetworkCost: w.NetworkCost, TotalLoad: w.TotalLoad}
		for _, id := range w.Nodes {
			want.Nodes = append(want.Nodes, pos[id])
			want.Counts = append(want.Counts, w.Procs[id])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("procs %d starts %v:\ngot    %+v\noracle %+v", tc.req.Procs, tc.starts, got, want)
		}
	}
}

// chargeRegime pins snap's nodes (in place) to where charging a row's
// window mean and charging each window agree: uniform load and
// utilisation windows, utilisation at most 50 % and 32 cores, so no
// charge below reaches the 100 % cap.
func chargeRegime(snap *metrics.Snapshot) {
	for id, na := range snap.Nodes {
		na.Cores = 32
		na.CPULoad.M5, na.CPULoad.M15 = na.CPULoad.M1, na.CPULoad.M1
		u := math.Min(na.CPUUtilPct.M1, 50)
		na.CPUUtilPct = stats.Windowed{M1: u, M5: u, M15: u}
		snap.Nodes[id] = na
	}
}

// checkCharge charges two nodes of snap (pinned to chargeRegime) through
// ChargeRanksAt with cand and holds every priced row of CL and CLUnit
// within 1e-9 of the oracle over the ChargeRanks-charged snapshot, and
// the charged capacities exactly; then again after RefreshAttrs folds a
// republish of two nodes into the base model. forecast is passed to
// NewCostModel as its ignored third argument.
func checkCharge(t *testing.T, snap *metrics.Snapshot, forecast bool, cand []int) {
	t.Helper()
	base := snap.Clone()
	chargeRegime(base)
	m := NewCostModel(base, PaperWeights(), forecast)
	n := m.Len()
	if n < 2 || m.CLErr() != nil {
		return
	}
	ids, ranks := []int{m.IDs[n/3], m.IDs[n-1]}, []int{8, 4}
	priced := cand
	if cand == nil {
		for i := 0; i < n; i++ {
			priced = append(priced, i)
		}
	}
	dst := &CostModel{}
	check := func(tag string, published *metrics.Snapshot) {
		t.Helper()
		got, ok := m.ChargeRanksAt(ids, ranks, cand, dst)
		if !ok {
			t.Fatalf("%s: ChargeRanksAt refused", tag)
		}
		first := slices.Clone(got.CL)
		if again, _ := m.ChargeRanksAt(ids, ranks, cand, dst); !sameBits(again.CL, first) {
			t.Fatalf("%s: a repeat charge into the same destination diverged", tag)
		}
		charged := published.Clone()
		for k, id := range ids {
			charged.Nodes[id] = ChargeRanks(charged.Nodes[id], ranks[k])
		}
		o := newOracle(charged, PaperWeights())
		req := Request{Procs: 1}
		caps := o.caps(req)
		for i, c := range got.caps(req) {
			if c != caps[o.ids[i]] {
				t.Fatalf("%s: charged capacity of node %d = %d, oracle %d", tag, o.ids[i], c, caps[o.ids[i]])
			}
		}
		for _, i := range priced {
			id := o.ids[i]
			if !closeRel(got.CL[i], o.cl[id]) || !closeRel(got.CLUnit[i], o.clUnit[id]) {
				t.Fatalf("%s: node %d CL %v / CLUnit %v, oracle %v / %v", tag, id, got.CL[i], got.CLUnit[i], o.cl[id], o.clUnit[id])
			}
		}
	}
	check("charge", base)

	next := base.Clone()
	r := rng.New(uint64(n))
	changed := []int{m.IDs[0], m.IDs[n/2]}
	for _, id := range changed {
		mutateDynamicAttrs(r, next, id)
	}
	chargeRegime(next)
	if !m.RefreshAttrs(next, changed) {
		t.Fatal("RefreshAttrs refused")
	}
	check("refresh+charge", next)
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

// randomSnapshot builds a seeded snapshot of n live hosts: non-contiguous
// IDs published in shuffled order, heterogeneous hardware, loads above
// the core count, 15 % of the pairs unmeasured.
// hostile adds what a monitor publishes mid-recovery: live hosts with no
// node record yet, nodes publishing zero cores, and 25 % of the pairs
// unmeasured. hostile=false draws exactly the stream
// TestShardedGoldenDigests was pinned on.
func randomSnapshot(r *rng.Rand, n int, hostile bool) *metrics.Snapshot {
	snap := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	var ids []int
	id := 0
	for i := 0; i < n; i++ {
		id += 1 + r.Intn(3)
		ids = append(ids, id)
	}
	for _, k := range perm(r, n) {
		nid := ids[k]
		snap.Livehosts = append(snap.Livehosts, nid)
		if hostile && r.Bool(0.1) {
			continue // live, node state not yet published
		}
		cores := 4 * (1 + r.Intn(4)) // 4..16
		if hostile && r.Bool(0.1) {
			cores = 0 // a bad publisher
		}
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
		skipRetiredDraws(r, cores)
		snap.Nodes[nid] = na
	}
	unmeasured := 0.15
	if hostile {
		unmeasured = 0.25
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(unmeasured) {
				continue
			}
			key := metrics.Pair(ids[i], ids[j])
			lat := time.Duration(r.Range(50, 800)) * time.Microsecond
			peak := r.Range(100e6, 130e6)
			snap.Latency[key] = metrics.PairLatency{U: key.U, V: key.V, Timestamp: t0, Last: lat, Mean1: lat}
			snap.Bandwidth[key] = metrics.PairBandwidth{
				U: key.U, V: key.V, Timestamp: t0,
				AvailBps: r.Range(10e6, peak), PeakBps: peak,
			}
		}
	}
	return snap
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
	skipRetiredDraws(r, na.Cores)
	snap.Nodes[id] = na
}

// skipRetiredDraws consumes, and discards, the draws that used to give a
// node its published forecasts, so that every seeded snapshot and
// mutation keeps the stream TestShardedGoldenDigests and the oracle cases
// were pinned on.
func skipRetiredDraws(r *rng.Rand, cores int) {
	if r.Bool(0.5) {
		r.Range(0, float64(cores))
	}
	if r.Bool(0.3) {
		r.Range(0, 5e7)
	}
}

// TestCostModelUpdateNodesFallsBack pins the conditions under which the
// incremental path must refuse and force a full rebuild.
func TestCostModelUpdateNodesFallsBack(t *testing.T) {
	snap := randomSnapshot(rng.New(7), 10, false)
	w := PaperWeights()
	m := NewCostModel(snap, w, false)

	if _, ok := m.UpdateNodes(snap.Clone(), []int{999999}); ok {
		t.Fatal("UpdateNodes accepted a node outside the model")
	}
	gone := snap.Clone()
	delete(gone.Nodes, m.IDs[0])
	if _, ok := m.UpdateNodes(gone, []int{m.IDs[0]}); ok {
		t.Fatal("UpdateNodes accepted a node with no published state")
	}
	died := snap.Clone()
	died.Livehosts = died.Livehosts[1:]
	if _, ok := m.UpdateNodes(died, []int{m.IDs[1]}); ok {
		t.Fatal("UpdateNodes accepted a changed live set")
	}
	if _, ok := (&CostModel{Weights: w}).UpdateNodes(snap, nil); ok {
		t.Fatal("UpdateNodes ran on a model with no attrRows")
	}
}
