package alloc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nlarm/internal/rng"
)

// greedySelect runs the oracle's Algorithm 1 step over the
// positive-capacity members of universe, addressed by their position in
// that filtered list (the kernel's addCost indexing), so ties break by
// position; it returns the selection as dense indices.
func greedySelect(universe, caps []int, cost []float64, procs int) (used, counts []int) {
	var idx, pos []int
	costOf, capOf := map[int]float64{}, map[int]int{}
	for _, u := range universe {
		if caps[u] > 0 {
			s := len(idx)
			idx, pos = append(idx, u), append(pos, s)
			costOf[s], capOf[s] = cost[s], caps[u]
		}
	}
	sel, counts := greedy(pos, costOf, capOf, procs)
	for _, s := range sel {
		used = append(used, idx[s])
	}
	return used, counts
}

// kernelSelect drives coverPrefix + take + roundRobin the way every
// Algorithm 1 caller does. prefix is the length coverPrefix returned:
// take would silently trim a prefix that is longer than minimal.
func kernelSelect(sc *genScratch, set *candSet, cost []float64, procs int) (used, counts []int, prefix int) {
	sc.grow(set)
	sel := sc.coverPrefix(cost, set, procs)
	roundRobin(sc.counts, sc.take(sel, set, procs))
	return sc.used, sc.counts, len(sel)
}

// TestKernelMatchesOracle checks the positional kernel against the
// oracle's Algorithm 1 step (greedy) on random inputs built to hurt: costs drawn from
// a handful of values (so most comparisons are position ties), mixed and
// zero capacities, shuffled universes, and process counts on both sides
// of the strategy switch, exactly at it (boundedHeapSquare·expect² == f
// and f±1), above the total capacity, on a single position and on an
// all-zero set; then cost shapes that hurt a histogram (a cluster beside
// a zero and a far outlier, geometric, all equal, −0 beside +0,
// subnormals, spans up to and past the float range, +Inf).
func TestKernelMatchesOracle(t *testing.T) {
	var sc genScratch // one scratch across all cases: reuse must not leak state
	var set candSet
	bounded, histogram := 0, 0
	check := func(tag string, universe, caps []int, cost []float64, procs int) {
		t.Helper()
		m := &CostModel{CLUnit: make([]float64, len(caps))}
		set.build(m, universe, caps, 0.5)
		if universe == nil {
			universe = make([]int, len(caps))
			for i := range universe {
				universe[i] = i
			}
		}
		if f := len(set.idx); f > 0 {
			if expect := min((procs*f+set.total-1)/set.total, f); boundedHeapSquare*expect*expect <= f {
				bounded++
			} else if f > sortRun {
				histogram++
			}
		}
		wantUsed, wantCounts := greedySelect(universe, caps, cost, procs)
		gotUsed, gotCounts, prefix := kernelSelect(&sc, &set, cost[:len(set.idx)], procs)
		if len(wantUsed) == 0 {
			if len(gotUsed) != 0 || len(gotCounts) != 0 {
				t.Fatalf("%s: selected %v/%v from a set with no capacity", tag, gotUsed, gotCounts)
			}
			return
		}
		if !reflect.DeepEqual(gotUsed, wantUsed) || !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("%s (f=%d maxCap=%d procs=%d):\nkernel %v / %v\noracle %v / %v",
				tag, len(set.idx), set.maxCap, procs, gotUsed, gotCounts, wantUsed, wantCounts)
		}
		if prefix != len(wantUsed) {
			t.Fatalf("%s (f=%d maxCap=%d procs=%d): prefix of %d positions, minimal is %d",
				tag, len(set.idx), set.maxCap, procs, prefix, len(wantUsed))
		}
		total := 0
		for _, c := range gotCounts {
			total += c
		}
		if total != procs {
			t.Fatalf("%s: placed %d of %d procs", tag, total, procs)
		}
	}

	r := rng.New(20240913)
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(160)
		caps := make([]int, n)
		maxCap := 1 + r.Intn(8)
		totalCap := 0
		for i := range caps {
			if !r.Bool(0.2) { // a fifth of the nodes are busy
				caps[i] = 1 + r.Intn(maxCap)
			}
			totalCap += caps[i]
		}
		levels := 1 + r.Intn(4) // 1..4 distinct costs: ties everywhere
		cost := make([]float64, n)
		for i := range cost {
			cost[i] = float64(r.Intn(levels)) / 4
		}
		var universe []int
		if trial%2 == 1 { // every other trial: a shuffled subset, like the shard union
			universe = perm(r, n)[:1+r.Intn(n)]
		}
		for _, procs := range []int{1, 1 + r.Intn(maxCap), 1 + r.Intn(totalCap+1), totalCap, totalCap + 1 + r.Intn(50)} {
			if procs > 0 {
				check("random", universe, caps, cost, procs)
			}
		}
	}

	// The switch itself: f candidates of capacity 4 and procs in (12, 16]
	// expect a prefix of 4, so boundedHeapSquare·4² against f = that − 1
	// (histogram), that, and that + 1 (bounded).
	for f := 16*boundedHeapSquare - 1; f <= 16*boundedHeapSquare+1; f++ {
		caps := make([]int, f)
		cost := make([]float64, f)
		for i := range caps {
			caps[i] = 4
			cost[i] = float64(r.Intn(3))
		}
		for procs := 13; procs <= 16; procs++ {
			check("switch", nil, caps, cost, procs)
		}
	}

	// Cost shapes, each at a few sizes, with mixed capacities and requests
	// from one position to more than the set holds.
	shapes := []struct {
		name string
		cost func(f int) []float64
	}{
		{"clustered", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				cost[s] = 1 + 1e-9*r.Float64()
			}
			cost[r.Intn(f)] = 1e6
			cost[r.Intn(f)] = 0
			return cost
		}},
		{"geometric", func(f int) []float64 {
			cost := make([]float64, f)
			for s, k := range perm(r, f) {
				cost[s] = math.Ldexp(1, -k)
			}
			return cost
		}},
		{"equal", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				cost[s] = 0.7
			}
			return cost
		}},
		{"signed-zero", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				cost[s] = []float64{math.Copysign(0, -1), 0, 0.5}[r.Intn(3)]
			}
			return cost
		}},
		{"subnormal", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				cost[s] = float64(r.Intn(40)) * math.SmallestNonzeroFloat64
			}
			return cost
		}},
		{"span-1e308", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				cost[s] = r.Float64() * 1e308
			}
			cost[r.Intn(f)], cost[r.Intn(f)] = 0, 1e308
			return cost
		}},
		{"span-overflow", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				cost[s] = r.Range(-1e308, 1e308)
			}
			return cost
		}},
		{"inf", func(f int) []float64 {
			cost := make([]float64, f)
			for s := range cost {
				if cost[s] = r.Float64(); r.Bool(0.1) {
					cost[s] = math.Inf(1)
				}
			}
			return cost
		}},
	}
	for _, shape := range shapes {
		for _, f := range []int{12, 40, 97, 200} {
			caps := make([]int, f)
			totalCap := 0
			for i := range caps {
				if !r.Bool(0.1) {
					caps[i] = 1 + r.Intn(4)
				}
				totalCap += caps[i]
			}
			cost := shape.cost(f)
			for _, procs := range []int{1, 3, totalCap / 8, totalCap / 3, totalCap - 1, totalCap + 5} {
				if procs > 0 {
					check(shape.name, nil, caps, cost, procs)
				}
			}
		}
	}
	if bounded == 0 || histogram == 0 {
		t.Fatalf("strategy coverage: %d bounded, %d histogram cases", bounded, histogram)
	}

	check("single", nil, []int{3}, []float64{0.7}, 2)
	check("single-oversubscribed", nil, []int{3}, []float64{0.7}, 11)
	check("all-zero", nil, []int{0, 0, 0, 0}, []float64{0, 0, 0, 0}, 5)
}

// TestKernelNaNCovers feeds costs with NaNs, which have no place in the
// (cost, position) order and so no oracle: the kernel must not panic and
// must still return distinct positions that cover the request.
func TestKernelNaNCovers(t *testing.T) {
	var sc genScratch
	var set candSet
	r := rng.New(7)
	for _, f := range []int{10, 40, 97, 200} {
		caps := make([]int, f)
		for i := range caps {
			caps[i] = 1 + r.Intn(4)
		}
		set.build(&CostModel{CLUnit: make([]float64, f)}, nil, caps, 0.5)
		sc.grow(&set)
		cost := make([]float64, f)
		for s := range cost {
			if cost[s] = r.Float64(); r.Bool(0.2) {
				cost[s] = math.NaN()
			}
		}
		for _, procs := range []int{1, 5, set.total / 3, set.total, set.total + 3} {
			seen := map[int]bool{}
			got := 0
			for _, s := range sc.coverPrefix(cost, &set, procs) {
				if seen[s] || s < 0 || s >= f {
					t.Fatalf("f=%d procs=%d: position %d repeated or out of range", f, procs, s)
				}
				seen[s] = true
				got += set.caps[s]
			}
			if got < min(procs, set.total) {
				t.Fatalf("f=%d procs=%d: selection covers %d", f, procs, got)
			}
		}
	}
}

// TestAllocateConstrainedAllocatesNothing pins AllocScratch's contract:
// once warmed, a decision allocates nothing, on either side of
// coverPrefix's strategy switch.
func TestAllocateConstrainedAllocatesNothing(t *testing.T) {
	p := NetLoadAware{}
	snap := randomSnapshot(rng.New(3), 64, false)
	for _, procs := range []int{4, 64} { // prefixes of 2 and 32 of 64 positions
		req := Request{Procs: procs, PPN: 2, Alpha: 0.5, Beta: 0.5}
		vreq, err := req.Validate()
		if err != nil {
			t.Fatal(err)
		}
		m := NewCostModel(snap, vreq.Weights, false)
		caps := m.caps(vreq)
		var sc AllocScratch
		run := func() {
			if _, err := p.AllocateConstrained(m, req, caps, nil, &sc); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("procs %d: %v allocations per warm decision", procs, n)
		}
	}
}

// kernelShape is one coverPrefix input for BenchmarkCoverPrefix: f
// positions of capacity 4, so a request for 4k procs has a covering
// prefix of exactly k, and 16 cost vectors cycled so that the branch
// predictor cannot learn one of them.
type kernelShape struct {
	set   candSet
	costs [][]float64
	procs int
}

func newKernelShape(f, k int, fill func(r *rng.Rand, cost []float64)) *kernelShape {
	ks := &kernelShape{procs: 4 * k}
	caps := make([]int, f)
	for i := range caps {
		caps[i] = 4
	}
	ks.set.build(&CostModel{CLUnit: make([]float64, f)}, nil, caps, 0.5)
	r := rng.New(uint64(f*1000 + k))
	for v := 0; v < 16; v++ {
		cost := make([]float64, f)
		fill(r, cost)
		ks.costs = append(ks.costs, cost)
	}
	return ks
}

var sinkSel []int

func (ks *kernelShape) bench(b *testing.B, cover func(sc *genScratch, cost []float64, set *candSet, procs int) []int) {
	var sc genScratch
	sc.grow(&ks.set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSel = cover(&sc, ks.costs[i%len(ks.costs)], &ks.set, ks.procs)
	}
}

// BenchmarkCoverPrefix times Algorithm 1's selection alone: both of
// coverPrefix's strategies at f ∈ {60, 256, 1024} and prefix lengths on
// both sides of the switch (uniform costs with the seed's own zero, as
// A_v(v) = 0), and the switch itself on the shape that hurts a
// histogram most, a tight cluster beside a zero and one far outlier.
// DESIGN.md §7's crossover table, and boundedHeapSquare, come from it.
func BenchmarkCoverPrefix(b *testing.B) {
	uniform := func(r *rng.Rand, cost []float64) {
		for s := range cost {
			cost[s] = r.Float64()
		}
		cost[r.Intn(len(cost))] = 0
	}
	bounded := func(sc *genScratch, cost []float64, set *candSet, procs int) []int {
		return sc.coverBounded(cost, set, procs)
	}
	sorted := func(sc *genScratch, cost []float64, set *candSet, procs int) []int {
		return sc.coverSorted(cost, set.caps, procs)
	}
	for _, f := range []int{60, 256, 1024} {
		for _, k := range []int{2, 4, 6, 8, 12, 16, 24, 32, 64, 128} {
			if 2*k > f {
				break
			}
			ks := newKernelShape(f, k, uniform)
			b.Run(fmt.Sprintf("f=%d/k=%d/bounded", f, k), func(b *testing.B) { ks.bench(b, bounded) })
			b.Run(fmt.Sprintf("f=%d/k=%d/sorted", f, k), func(b *testing.B) { ks.bench(b, sorted) })
		}
	}
	clustered := func(r *rng.Rand, cost []float64) {
		for s := range cost {
			cost[s] = 1 + 1e-9*r.Float64()
		}
		cost[r.Intn(len(cost))] = 1e6
		cost[r.Intn(len(cost))] = 0
	}
	for _, f := range []int{60, 256, 1024} {
		ks := newKernelShape(f, f/4, clustered)
		b.Run(fmt.Sprintf("clustered/f=%d/k=%d", f, f/4), func(b *testing.B) {
			ks.bench(b, (*genScratch).coverPrefix)
		})
	}
}
