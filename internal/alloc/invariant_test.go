package alloc

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// randomSnapshot builds an adversarial snapshot: random cluster size,
// random per-node attributes (including zero-core nodes), some live hosts
// with no published state, and only partial pairwise coverage — the messy
// inputs a real monitor produces mid-recovery.
func randomSnapshot(rnd *rng.Rand) *metrics.Snapshot {
	n := 2 + rnd.Intn(23)
	snap := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		if rnd.Float64() < 0.1 {
			continue // live but state not yet published
		}
		cores := rnd.Intn(17) // includes 0 (bad publisher)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: fmt.Sprintf("h%d", i), Timestamp: t0,
			Cores: cores, FreqGHz: 1 + rnd.Float64()*4,
			TotalMemMB: 1024 * float64(1+rnd.Intn(64)),
			Users:      rnd.Intn(5),
		}
		load := rnd.Float64() * float64(cores+2)
		na.CPULoad = stats.Windowed{M1: load, M5: load * 0.9, M15: load * 0.8}
		na.CPUUtilPct = stats.Windowed{M1: rnd.Float64() * 100}
		na.FlowRateBps = stats.Windowed{M1: rnd.Float64() * 1e8}
		na.AvailMemMB = stats.Windowed{M1: rnd.Float64() * na.TotalMemMB}
		snap.Nodes[i] = na
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rnd.Float64() < 0.25 {
				continue // pair never measured
			}
			key := metrics.Pair(i, j)
			lat := time.Duration(20+rnd.Intn(2000)) * time.Microsecond
			snap.Latency[key] = metrics.PairLatency{U: i, V: j, Timestamp: t0, Last: lat, Mean1: lat}
			peak := 1e8 + rnd.Float64()*5e8
			snap.Bandwidth[key] = metrics.PairBandwidth{
				U: i, V: j, Timestamp: t0,
				AvailBps: rnd.Float64() * peak, PeakBps: peak,
			}
		}
	}
	return snap
}

// naiveComputeLoads re-derives Equation 1 the slow way — map lookups, a
// from-scratch SAW (sum-normalize each column, complement maximization
// columns, weighted sum) — sharing no code with the dense path.
func naiveComputeLoads(snap *metrics.Snapshot, ids []int, w Weights) []float64 {
	n := len(ids)
	avg := func(wd stats.Windowed) float64 { return (wd.M1 + wd.M5 + wd.M15) / 3 }
	cols := make([][]float64, 8)
	weights := []float64{w.CPULoad, w.CPUUtil, w.FlowRate, w.AvailMem, w.Cores, w.Freq, w.TotalMem, w.Users}
	maximize := []bool{false, false, false, true, true, true, true, false}
	for c := range cols {
		cols[c] = make([]float64, n)
	}
	for r, id := range ids {
		na := snap.Nodes[id]
		cols[0][r] = avg(na.CPULoad)
		cols[1][r] = avg(na.CPUUtilPct)
		cols[2][r] = avg(na.FlowRateBps)
		cols[3][r] = avg(na.AvailMemMB)
		cols[4][r] = float64(na.Cores)
		cols[5][r] = na.FreqGHz
		cols[6][r] = na.TotalMemMB
		cols[7][r] = float64(na.Users)
	}
	out := make([]float64, n)
	for c := range cols {
		sum := 0.0
		for _, v := range cols[c] {
			sum += v
		}
		norm := make([]float64, n)
		if sum != 0 {
			for r, v := range cols[c] {
				norm[r] = v / sum
			}
		}
		if maximize[c] {
			maxV := 0.0
			for r, v := range norm {
				if r == 0 || v > maxV {
					maxV = v
				}
			}
			for r := range norm {
				norm[r] = maxV - norm[r]
			}
		}
		for r := range norm {
			out[r] += weights[c] * norm[r]
		}
	}
	return out
}

// naiveNetworkLoads re-derives Equation 2 with map-keyed pair lookups:
// global nominal peak, worst-fill for unmeasured pairs, sum-normalized
// latency and bandwidth-complement columns, weighted combination.
func naiveNetworkLoads(snap *metrics.Snapshot, ids []int, w Weights) map[[2]int]float64 {
	n := len(ids)
	peak := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, p, ok := snap.BandwidthOf(ids[i], ids[j]); ok && p > peak {
				peak = p
			}
		}
	}
	type pair struct{ i, j int }
	var pairs []pair
	lat := map[pair]float64{}
	cbw := map[pair]float64{}
	worstLat, worstCbw := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
			l, okL := snap.LatencyOf(ids[i], ids[j])
			avail, _, okB := snap.BandwidthOf(ids[i], ids[j])
			if okL && okB {
				lat[pair{i, j}] = l.Seconds()
				c := peak - avail
				if c < 0 {
					c = 0
				}
				cbw[pair{i, j}] = c
				if l.Seconds() > worstLat {
					worstLat = l.Seconds()
				}
				if c > worstCbw {
					worstCbw = c
				}
			}
		}
	}
	for _, p := range pairs {
		if _, ok := lat[p]; !ok {
			lat[p] = worstLat
			cbw[p] = worstCbw
		}
	}
	latSum, cbwSum := 0.0, 0.0
	for _, p := range pairs {
		latSum += lat[p]
		cbwSum += cbw[p]
	}
	out := map[[2]int]float64{}
	for _, p := range pairs {
		lv, cv := 0.0, 0.0
		if latSum != 0 {
			lv = lat[p] / latSum
		}
		if cbwSum != 0 {
			cv = cbw[p] / cbwSum
		}
		out[[2]int{p.i, p.j}] = w.Latency*lv + w.Bandwidth*cv
	}
	return out
}

// TestCostModelMatchesNaiveRecompute cross-checks the dense CostModel's
// CL and NL against the independent naive recomputation over 50 seeded
// random snapshots, within 1e-12.
func TestCostModelMatchesNaiveRecompute(t *testing.T) {
	rnd := rng.New(0xA110C)
	clChecked, nlChecked := 0, 0
	for trial := 0; trial < 50; trial++ {
		snap := randomSnapshot(rnd)
		w := PaperWeights()
		m := NewCostModel(snap, w, false)
		ids := m.IDs
		n := len(ids)
		if m.CLErr() == nil && n > 0 {
			clChecked++
			naive := naiveComputeLoads(snap, ids, w)
			for i := range ids {
				if d := math.Abs(m.CL[i] - naive[i]); d > 1e-12 {
					t.Fatalf("trial %d: CL[%d] dense=%v naive=%v diff=%v", trial, i, m.CL[i], naive[i], d)
				}
			}
		}
		if m.NLErr() == nil && n > 1 {
			nlChecked++
			naive := naiveNetworkLoads(snap, ids, w)
			raw, err := networkLoadsDense(snap, m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := naive[[2]int{i, j}]
					if d := math.Abs(raw[i*n+j] - want); d > 1e-12 {
						t.Fatalf("trial %d: NL[%d,%d] dense=%v naive=%v diff=%v", trial, i, j, raw[i*n+j], want, d)
					}
					if raw[i*n+j] != raw[j*n+i] {
						t.Fatalf("trial %d: NL not symmetric at (%d,%d)", trial, i, j)
					}
				}
			}
		}
	}
	if clChecked < 40 || nlChecked < 40 {
		t.Fatalf("cross-check exercised too rarely: cl=%d nl=%d of 50", clChecked, nlChecked)
	}
}

// TestPolicyInvariantsOnRandomSnapshots checks, for every policy over 50
// seeded random snapshots: allocated nodes are monitored livehosts, the
// reserved process total equals the request, and every chosen node hosts
// at least one process.
func TestPolicyInvariantsOnRandomSnapshots(t *testing.T) {
	rnd := rng.New(0xBEEF)
	successes := 0
	for trial := 0; trial < 50; trial++ {
		snap := randomSnapshot(rnd)
		live := map[int]bool{}
		for _, id := range MonitoredLivehosts(snap) {
			live[id] = true
		}
		req := Request{Procs: 1 + rnd.Intn(32), Alpha: 0.5, Beta: 0.5}
		if rnd.Bool(0.3) {
			req.PPN = 1 + rnd.Intn(4)
		}
		for _, pol := range allPolicies() {
			a, err := Allocate(pol, snap, req, rnd.Split())
			if err != nil {
				continue // e.g. no pairwise data, cluster too small
			}
			successes++
			for _, node := range a.Nodes {
				if !live[node] {
					t.Fatalf("trial %d %s: node %d allocated but not a monitored livehost", trial, pol.Name(), node)
				}
				if a.Procs[node] < 1 {
					t.Fatalf("trial %d %s: node %d assigned %d procs", trial, pol.Name(), node, a.Procs[node])
				}
			}
			if got := a.TotalProcs(); got != req.Procs {
				t.Fatalf("trial %d %s: reserved %d procs, requested %d", trial, pol.Name(), got, req.Procs)
			}
			if len(a.Nodes) != len(a.Procs) {
				t.Fatalf("trial %d %s: %d nodes vs %d proc entries", trial, pol.Name(), len(a.Nodes), len(a.Procs))
			}
		}
	}
	if successes < 100 {
		t.Fatalf("only %d successful allocations across all trials; generator too hostile", successes)
	}
}

// TestEffectiveProcsBounds fuzzes Equation 3 over adversarial inputs:
// the slot estimate must stay within [1, max(cores,1)] and a positive
// PPN override must always win.
func TestEffectiveProcsBounds(t *testing.T) {
	rnd := rng.New(7)
	for i := 0; i < 2000; i++ {
		cores := rnd.Intn(24) - 4 // includes negative and zero
		load := rnd.Float64()*40 - 2
		na := metrics.NodeAttrs{Cores: cores, CPULoad: stats.Windowed{M1: load}}
		got := EffectiveProcs(na, 0)
		maxSlots := cores
		if maxSlots < 1 {
			maxSlots = 1
		}
		if got < 1 || got > maxSlots {
			t.Fatalf("EffectiveProcs(cores=%d, load=%v) = %d, want within [1,%d]", cores, load, got, maxSlots)
		}
		ppn := 1 + rnd.Intn(8)
		if p := EffectiveProcs(na, ppn); p != ppn {
			t.Fatalf("ppn override: got %d want %d", p, ppn)
		}
	}
}
