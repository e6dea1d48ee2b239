package alloc

import (
	"reflect"
	"sort"
	"testing"

	"nlarm/internal/rng"
)

// oracleSelect is Algorithm 1's greedy step the obvious way: sort the
// positive-capacity members of universe by (cost, position), take the
// minimal covering prefix with each node filled to capacity, round-robin
// whatever no capacity covered. cost is indexed by position in the
// filtered universe, like the kernel's addCost.
func oracleSelect(universe, caps []int, cost []float64, procs int) (used, counts []int) {
	var idx []int
	for _, u := range universe {
		if caps[u] > 0 {
			idx = append(idx, u)
		}
	}
	order := make([]int, len(idx))
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] < cost[order[b]] })
	remaining := procs
	for _, s := range order {
		if remaining == 0 {
			break
		}
		take := min(caps[idx[s]], remaining)
		used = append(used, idx[s])
		counts = append(counts, take)
		remaining -= take
	}
	for k := 0; remaining > 0 && len(counts) > 0; k = (k + 1) % len(counts) {
		counts[k]++
		remaining--
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
// sort-everything oracle on random inputs built to hurt: costs drawn from
// a handful of values (so most comparisons are position ties), mixed and
// zero capacities, shuffled universes, and process counts on both sides
// of the strategy switch, exactly at it (16·expect == f and f±1), above
// the total capacity, on a single position and on an all-zero set.
func TestKernelMatchesOracle(t *testing.T) {
	var sc genScratch // one scratch across all cases: reuse must not leak state
	var set candSet
	bounded, heapified := 0, 0
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
			if expect := (procs*f + set.total - 1) / set.total; boundedHeapRatio*expect <= f {
				bounded++
			} else {
				heapified++
			}
		}
		wantUsed, wantCounts := oracleSelect(universe, caps, cost, procs)
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
	// expect a prefix of 4, so 16·expect is 64 against f = 63 (heapify), 64
	// and 65 (bounded).
	for _, f := range []int{63, 64, 65} {
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
	if bounded == 0 || heapified == 0 {
		t.Fatalf("strategy coverage: %d bounded, %d heapified cases", bounded, heapified)
	}

	check("single", nil, []int{3}, []float64{0.7}, 2)
	check("single-oversubscribed", nil, []int{3}, []float64{0.7}, 11)
	check("all-zero", nil, []int{0, 0, 0, 0}, []float64{0, 0, 0, 0}, 5)
}
