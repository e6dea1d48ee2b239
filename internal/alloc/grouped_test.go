package alloc

import (
	"testing"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// groupOf4 partitions the synthetic line snapshot into groups of four
// consecutive nodes (mirroring switch attachment).
func groupOf4(node int) int { return node / 4 }

func TestGroupedRequiresGroupFn(t *testing.T) {
	snap := synthSnapshot(uniformLoads(8, 1))
	if _, err := Allocate(GroupedNetLoadAware{}, snap, Request{Procs: 4}, rng.New(1)); err == nil {
		t.Fatal("nil GroupOf accepted")
	}
}

func TestGroupedSatisfiesRequest(t *testing.T) {
	snap := synthSnapshot(uniformLoads(16, 0.5))
	pol := GroupedNetLoadAware{GroupOf: groupOf4}
	a, err := Allocate(pol, snap, Request{Procs: 12, PPN: 4, Alpha: 0.3, Beta: 0.7}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalProcs() != 12 {
		t.Fatalf("allocated %d procs", a.TotalProcs())
	}
	if a.Policy != "grouped-net-load-aware" {
		t.Fatalf("policy %q", a.Policy)
	}
}

func TestGroupedPrefersSingleWellConnectedGroup(t *testing.T) {
	// Uniform load: one group of four adjacent nodes should cover a
	// 16-proc/ppn4 request; groups far apart on the line are expensive.
	snap := synthSnapshot(uniformLoads(16, 1))
	pol := GroupedNetLoadAware{GroupOf: groupOf4}
	a, err := Allocate(pol, snap, Request{Procs: 16, PPN: 4, Alpha: 0.3, Beta: 0.7}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int]bool{}
	for _, n := range a.Nodes {
		groups[groupOf4(n)] = true
	}
	if len(groups) != 1 {
		t.Fatalf("16 procs at ppn 4 spread over %d groups: %v", len(groups), a.Nodes)
	}
}

func TestGroupedAvoidsLoadedGroup(t *testing.T) {
	// Group 0 (nodes 0-3) heavily loaded; group 1 (4-7) idle. α-heavy
	// request must land in group 1.
	loads := []float64{6, 6, 6, 6, 0.1, 0.1, 0.1, 0.1}
	snap := synthSnapshot(loads)
	pol := GroupedNetLoadAware{GroupOf: groupOf4}
	a, err := Allocate(pol, snap, Request{Procs: 16, PPN: 4, Alpha: 0.7, Beta: 0.3}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range a.Nodes {
		if n < 4 {
			t.Fatalf("grouped policy picked loaded group: %v", a.Nodes)
		}
	}
}

func TestGroupedPicksLightestNodesWithinGroup(t *testing.T) {
	// One group suffices; inside it, the lightest members must be used.
	loads := []float64{5, 0.1, 0.2, 4, 9, 9, 9, 9}
	snap := synthSnapshot(loads)
	pol := GroupedNetLoadAware{GroupOf: groupOf4}
	a, err := Allocate(pol, snap, Request{Procs: 8, PPN: 4, Alpha: 0.5, Beta: 0.5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 2: true}
	for _, n := range a.Nodes {
		if !want[n] {
			t.Fatalf("grouped fill picked %v, want the light members {1,2}", a.Nodes)
		}
	}
}

func TestGroupedSpansGroupsWhenNeeded(t *testing.T) {
	snap := synthSnapshot(uniformLoads(12, 0.5))
	pol := GroupedNetLoadAware{GroupOf: groupOf4}
	// 32 procs at ppn 4 needs 8 nodes = 2 groups.
	a, err := Allocate(pol, snap, Request{Procs: 32, PPN: 4, Alpha: 0.3, Beta: 0.7}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int]bool{}
	for _, n := range a.Nodes {
		groups[groupOf4(n)] = true
	}
	if len(groups) != 2 {
		t.Fatalf("8 nodes spread over %d groups", len(groups))
	}
	// The two groups must be adjacent on the line (cheapest inter-group NL).
	var ids []int
	for g := range groups {
		ids = append(ids, g)
	}
	if d := ids[0] - ids[1]; d != 1 && d != -1 {
		t.Fatalf("non-adjacent groups chosen: %v", ids)
	}
}

func TestGroupedAgreesWithNLAOnDominantChoice(t *testing.T) {
	// A clearly dominant region (lightest and best-connected): both the
	// exact heuristic and the grouped one should land there.
	loads := uniformLoads(16, 3)
	for i := 8; i < 12; i++ {
		loads[i] = 0.1
	}
	snap := synthSnapshot(loads)
	exact, err := Allocate(NetLoadAware{}, snap, Request{Procs: 16, PPN: 4, Alpha: 0.5, Beta: 0.5}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := Allocate(GroupedNetLoadAware{GroupOf: groupOf4}, snap, Request{Procs: 16, PPN: 4, Alpha: 0.5, Beta: 0.5}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	toSet := func(nodes []int) map[int]bool {
		m := map[int]bool{}
		for _, n := range nodes {
			m[n] = true
		}
		return m
	}
	e, g := toSet(exact.Nodes), toSet(grouped.Nodes)
	for n := range e {
		if !g[n] {
			t.Fatalf("exact %v vs grouped %v disagree on the dominant region", exact.Nodes, grouped.Nodes)
		}
	}
}

func TestGroupedDeterministic(t *testing.T) {
	snap := synthSnapshot([]float64{1, 0.5, 2, 0.1, 3, 0.2, 1.5, 0.8, 2.2, 0.3, 1.1, 0.9})
	pol := GroupedNetLoadAware{GroupOf: groupOf4}
	req := Request{Procs: 16, PPN: 4, Alpha: 0.4, Beta: 0.6}
	a1, err := Allocate(pol, snap, req, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Allocate(pol, snap, req, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Nodes) != len(a2.Nodes) {
		t.Fatal("grouped policy nondeterministic")
	}
	for i := range a1.Nodes {
		if a1.Nodes[i] != a2.Nodes[i] {
			t.Fatal("grouped policy nondeterministic")
		}
	}
}

// synthSnapshotLarge builds an n-node line snapshot for scalability
// comparisons.
func synthSnapshotLarge(n int) *metrics.Snapshot {
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = 0.2 + float64(i%7)*0.3
	}
	return synthSnapshot(loads)
}

func BenchmarkNLAExact120Nodes(b *testing.B) {
	snap := synthSnapshotLarge(120)
	req := Request{Procs: 64, PPN: 4, Alpha: 0.3, Beta: 0.7}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Allocate(NetLoadAware{}, snap, req, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNLAGrouped120Nodes(b *testing.B) {
	snap := synthSnapshotLarge(120)
	req := Request{Procs: 64, PPN: 4, Alpha: 0.3, Beta: 0.7}
	pol := GroupedNetLoadAware{GroupOf: func(n int) int { return n / 15 }}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Allocate(pol, snap, req, r); err != nil {
			b.Fatal(err)
		}
	}
}
