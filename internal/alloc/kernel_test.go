package alloc

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
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
func kernelSelect(sc *genScratch, set *candSet, cost []float64, procs int, sp costSpan) (used, counts []int, prefix int) {
	sc.grow(set)
	sel := sc.coverPrefix(cost, set, procs, sp)
	roundRobin(sc.counts, sc.take(sel, set, procs))
	return sc.used, sc.counts, len(sel)
}

// naiveSpan is costSpan by its definition: the least, the greatest and
// the second-greatest of the costs but position seed's (-1 for none),
// and whether a NaN is among them.
func naiveSpan(cost []float64, seed int) costSpan {
	sp := emptySpan
	var rest []float64
	for s, c := range cost {
		switch {
		case s == seed:
		case math.IsNaN(c):
			sp.nan = true
		default:
			rest = append(rest, c)
		}
	}
	sort.Float64s(rest)
	if n := len(rest); n > 0 {
		sp.lo, sp.hi1 = rest[0], rest[n-1]
		if n > 1 {
			sp.hi2 = rest[n-2]
		}
	}
	return sp
}

// sameSpan compares spans by value, so −0 and +0 bounds are equal.
func sameSpan(a, b costSpan) bool {
	return a.lo == b.lo && a.hi1 == b.hi1 && a.hi2 == b.hi2 && a.nan == b.nan
}

// TestKernelMatchesOracle checks the positional kernel against the
// oracle's Algorithm 1 step (greedy) on random inputs built to hurt: costs drawn from
// a handful of values (so most comparisons are position ties), mixed and
// zero capacities, shuffled universes, and process counts on both sides
// of the strategy switch, exactly at it (boundedHeapSquare·expect² == f
// and f±1), above the total capacity, on a single position and on an
// all-zero set; then cost shapes that hurt a histogram (a cluster beside
// a zero and a far outlier, geometric, all equal, −0 beside +0,
// subnormals, spans up to and past the float range, +Inf). Every case
// runs under the span a fill reports — over every cost, or, seeded, with
// one position's cost set to the seed's 0 and left out of it — and again
// under that span flagged with a NaN, which must take the one-bucket
// path to the same answer.
func TestKernelMatchesOracle(t *testing.T) {
	var sc genScratch // one scratch across all cases: reuse must not leak state
	var set candSet
	r := rng.New(20240913)
	bounded, histogram, outside := 0, 0, 0
	check := func(tag string, universe, caps []int, cost []float64, procs int, seeded bool) {
		t.Helper()
		m := &CostModel{CLUnit: make([]float64, len(caps))}
		set.build(m, universe, caps, 0.5)
		if universe == nil {
			universe = make([]int, len(caps))
			for i := range universe {
				universe[i] = i
			}
		}
		f := len(set.idx)
		seed := -1
		if seeded && f > 0 {
			seed = r.Intn(f)
			cost = append([]float64(nil), cost...)
			cost[seed] = 0
		}
		sp := naiveSpan(cost[:f], seed)
		if f > 0 {
			if !set.sorted(procs) {
				bounded++
			} else if _, _, ok := sp.scale(f); ok && f > sortRun {
				histogram++
				if seed >= 0 && !(cost[seed] >= sp.lo && cost[seed] <= sp.hi2) {
					outside++
				}
			}
		}
		wantUsed, wantCounts := greedySelect(universe, caps, cost, procs)
		nanSpan := sp
		nanSpan.nan = true
		for _, sp := range []costSpan{sp, nanSpan} {
			gotUsed, gotCounts, prefix := kernelSelect(&sc, &set, cost[:f], procs, sp)
			if len(wantUsed) == 0 {
				if len(gotUsed) != 0 || len(gotCounts) != 0 {
					t.Fatalf("%s: selected %v/%v from a set with no capacity", tag, gotUsed, gotCounts)
				}
				return
			}
			if !reflect.DeepEqual(gotUsed, wantUsed) || !reflect.DeepEqual(gotCounts, wantCounts) {
				t.Fatalf("%s (f=%d maxCap=%d procs=%d seed=%d nan=%v):\nkernel %v / %v\noracle %v / %v",
					tag, f, set.maxCap, procs, seed, sp.nan, gotUsed, gotCounts, wantUsed, wantCounts)
			}
			if prefix != len(wantUsed) {
				t.Fatalf("%s (f=%d maxCap=%d procs=%d seed=%d nan=%v): prefix of %d positions, minimal is %d",
					tag, f, set.maxCap, procs, seed, sp.nan, prefix, len(wantUsed))
			}
			total := 0
			for _, c := range gotCounts {
				total += c
			}
			if total != procs {
				t.Fatalf("%s: placed %d of %d procs", tag, total, procs)
			}
		}
	}

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
				check("random", universe, caps, cost, procs, trial%3 == 0)
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
			check("switch", nil, caps, cost, procs, false)
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
					check(shape.name, nil, caps, cost, procs, false)
					check(shape.name+"/seeded", nil, caps, cost, procs, true)
				}
			}
		}
	}
	if bounded == 0 || histogram == 0 || outside == 0 {
		t.Fatalf("strategy coverage: %d bounded, %d histogram cases, %d with the seed outside the span", bounded, histogram, outside)
	}

	check("single", nil, []int{3}, []float64{0.7}, 2, true)
	check("single-oversubscribed", nil, []int{3}, []float64{0.7}, 11, false)
	check("all-zero", nil, []int{0, 0, 0, 0}, []float64{0, 0, 0, 0}, 5, true)

	checkSeedAlone(t, r)
}

// checkSeedAlone holds selectFrom, seed-alone step included, to the
// oracle's Algorithm 1 step on small dense models: shapes where the step
// fires, and shapes where one of its conditions fails and the scan must
// answer — a zero α·CLUnit at a position below the seed (the seed loses
// the tie at cost 0 by position), a negative NL entry, and a NaN at
// position 0 (a NaN has no place in the order, so the oracle's sort is
// kept to insertion sort, 12 or fewer positions, where a NaN at the front
// stays there, as the kernel's argmin leaves it) — each with single-node
// and larger requests.
func checkSeedAlone(t *testing.T, r *rng.Rand) {
	t.Helper()
	var sc genScratch
	var set candSet
	fired := 0
	for trial := 0; trial < 400; trial++ {
		shape := []string{"fires", "zero-below", "negative-nl", "nan-cl", "nan-nl"}[trial%5]
		n := 2 + r.Intn(11)
		m := &CostModel{IDs: make([]int, n), CLUnit: make([]float64, n), NLUnit: make([]float64, n*n)}
		for i := range m.CLUnit {
			m.IDs[i] = i
			m.CLUnit[i] = 0.1 + r.Float64()
			for j := i + 1; j < n; j++ {
				v := r.Float64()
				m.NLUnit[i*n+j], m.NLUnit[j*n+i] = v, v
			}
		}
		caps := make([]int, n)
		for i := range caps {
			if !r.Bool(0.2) {
				caps[i] = 1 + r.Intn(4)
			}
		}
		v := r.Intn(n)
		caps[v] = max(caps[v], 1) // the seed is a candidate
		// The lowest other candidate, which every failing shape prices at or
		// below the seed's own zero.
		low := -1
		for u := range caps {
			if u != v && caps[u] > 0 {
				low = u
				break
			}
		}
		alpha := []float64{0.3, 0.5, 1}[r.Intn(3)]
		req := Request{Alpha: alpha, Beta: 1 - alpha}
		switch shape {
		case "zero-below":
			if low < 0 || low > v {
				continue
			}
			m.CLUnit[low] = 0
			req = Request{Alpha: 1, Beta: 0}
		case "negative-nl":
			if low < 0 {
				continue
			}
			m.NLUnit[v*n+low], m.NLUnit[low*n+v] = -5, -5
		case "nan-cl":
			if low != 0 {
				continue
			}
			m.CLUnit[0] = math.NaN()
		case "nan-nl":
			if low != 0 {
				continue
			}
			m.NLUnit[v*n], m.NLUnit[v] = math.NaN(), math.NaN()
			req = Request{Alpha: 1, Beta: 0}
		}
		m.nlNonNeg = true
		for _, x := range m.NLUnit {
			m.nlNonNeg = m.nlNonNeg && x >= 0 && x <= math.MaxFloat64
		}
		set.build(m, nil, caps, req.Alpha)
		var universe []int
		cost := make([]float64, 0, n)
		for u, c := range caps {
			if c > 0 {
				universe = append(universe, u)
				if u == v {
					cost = append(cost, 0)
				} else {
					cost = append(cost, float64(req.Alpha*m.CLUnit[u])+float64(req.Beta*m.NLUnit[v*n+u]))
				}
			}
		}
		for _, procs := range []int{1, caps[v], 1 + r.Intn(set.total+2)} {
			if strings.HasPrefix(shape, "nan") && procs > caps[low] {
				continue // the NaN stays in front only while it covers alone
			}
			req.Procs = procs
			if shape == "fires" && procs <= caps[v] {
				fired++
			}
			wantUsed, wantCounts := greedySelect(universe, caps, cost, procs)
			roundRobin(sc.counts, sc.selectFrom(m, v, &set, req))
			if !reflect.DeepEqual(sc.used, wantUsed) || !reflect.DeepEqual(sc.counts, wantCounts) {
				t.Fatalf("seed-alone %s (n=%d seed=%d procs=%d α=%g):\nkernel %v / %v\noracle %v / %v",
					shape, n, v, procs, req.Alpha, sc.used, sc.counts, wantUsed, wantCounts)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no case where the seed-alone step applies")
	}
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
			for _, s := range sc.coverPrefix(cost, &set, procs, naiveSpan(cost, -1)) {
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
// positions of one capacity, so a request for capacity·k procs has a
// covering prefix of exactly k, and 16 cost vectors cycled so that the
// branch predictor cannot learn one of them, each with the span its fill
// would report.
type kernelShape struct {
	set   candSet
	costs [][]float64
	spans []costSpan
	procs int
}

// newKernelShape fills each cost vector with fill, which returns the
// seed's position (its cost is left out of the span).
func newKernelShape(f, k, capacity int, fill func(r *rng.Rand, cost []float64) (seed int)) *kernelShape {
	ks := &kernelShape{procs: capacity * k}
	caps := make([]int, f)
	for i := range caps {
		caps[i] = capacity
	}
	ks.set.build(&CostModel{CLUnit: make([]float64, f)}, nil, caps, 0.5)
	r := rng.New(uint64(f*1000 + k))
	for v := 0; v < 16; v++ {
		cost := make([]float64, f)
		ks.costs = append(ks.costs, cost)
		ks.spans = append(ks.spans, naiveSpan(cost, fill(r, cost)))
	}
	return ks
}

var sinkSel []int

func (ks *kernelShape) bench(b *testing.B, cover func(sc *genScratch, cost []float64, set *candSet, procs int, sp costSpan) []int) {
	var sc genScratch
	sc.grow(&ks.set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % len(ks.costs)
		sinkSel = cover(&sc, ks.costs[v], &ks.set, ks.procs, ks.spans[v])
	}
}

// BenchmarkCoverPrefix times Algorithm 1's selection alone: both of
// coverPrefix's strategies at f ∈ {60, 64, 256, 1024} and prefix lengths
// on both sides of the switch (uniform costs with the seed's own zero,
// as A_v(v) = 0), capacity 4 except at f = 64, which is the shard
// scouts' shape (capacity 2 under PPN 2, prefix 32 for 64 procs); and
// the switch itself on the shape that hurts a histogram most, a tight
// cluster beside a zero and one far outlier. DESIGN.md §7's crossover
// table, and boundedHeapSquare, come from it.
func BenchmarkCoverPrefix(b *testing.B) {
	uniform := func(r *rng.Rand, cost []float64) int {
		for s := range cost {
			cost[s] = r.Float64()
		}
		seed := r.Intn(len(cost))
		cost[seed] = 0
		return seed
	}
	bounded := func(sc *genScratch, cost []float64, set *candSet, procs int, _ costSpan) []int {
		return sc.coverBounded(cost, set, procs)
	}
	sorted := func(sc *genScratch, cost []float64, set *candSet, procs int, sp costSpan) []int {
		return sc.coverSorted(cost, set.caps, procs, sp)
	}
	for _, f := range []int{60, 64, 256, 1024} {
		capacity := 4
		if f == 64 {
			capacity = 2
		}
		for _, k := range []int{2, 4, 6, 8, 12, 16, 24, 32, 64, 128} {
			if 2*k > f {
				break
			}
			ks := newKernelShape(f, k, capacity, uniform)
			b.Run(fmt.Sprintf("f=%d/k=%d/bounded", f, k), func(b *testing.B) { ks.bench(b, bounded) })
			b.Run(fmt.Sprintf("f=%d/k=%d/sorted", f, k), func(b *testing.B) { ks.bench(b, sorted) })
		}
	}
	clustered := func(r *rng.Rand, cost []float64) int {
		for s := range cost {
			cost[s] = 1 + 1e-9*r.Float64()
		}
		cost[r.Intn(len(cost))] = 1e6
		seed := r.Intn(len(cost))
		cost[seed] = 0
		return seed
	}
	for _, f := range []int{60, 256, 1024} {
		ks := newKernelShape(f, f/4, 4, clustered)
		b.Run(fmt.Sprintf("clustered/f=%d/k=%d", f, f/4), func(b *testing.B) {
			ks.bench(b, (*genScratch).coverPrefix)
		})
	}
}
