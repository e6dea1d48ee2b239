// Package mpisim simulates the execution of bulk-synchronous MPI programs
// on the shared cluster. A program is described by its Shape — per-rank
// compute work and the per-iteration communication pattern (point-to-point
// messages between ranks plus collectives) — and executed against an Env
// that prices CPU contention and network transfers. The executor advances
// jobs in small time steps so that execution time reflects the cluster
// conditions *while the job runs*, exactly like the paper's real runs on a
// live shared cluster.
//
// This package is the substitute for MPICH + the physical testbed: the
// same α-β (latency-bandwidth) communication model that underlies MPI
// performance analysis is evaluated against the simulated network, and
// compute time is scaled by clock speed and core contention.
package mpisim

import (
	"fmt"
	"math"
)

// RankPair is an unordered pair of MPI ranks; Lo < Hi.
type RankPair struct {
	Lo, Hi int
}

// PairOf returns the canonical RankPair for ranks a and b.
func PairOf(a, b int) RankPair {
	if a > b {
		a, b = b, a
	}
	return RankPair{Lo: a, Hi: b}
}

// Traffic is the per-iteration point-to-point communication volume between
// one pair of ranks.
type Traffic struct {
	Bytes float64 // payload bytes per iteration (both directions combined)
	Msgs  int     // messages per iteration (latency terms)
}

// Shape describes a bulk-synchronous MPI program: Iterations identical
// iterations, each consisting of a compute phase followed by a
// communication phase.
type Shape struct {
	Name  string
	Ranks int
	// Iterations is the number of outer iterations (MD timesteps, CG
	// iterations, ...).
	Iterations int
	// ComputeSecPerIter is the per-rank compute time of one iteration on a
	// reference core (RefFreqGHz) with no contention.
	ComputeSecPerIter float64
	// RefFreqGHz is the clock the compute estimate is calibrated for.
	RefFreqGHz float64
	// P2P holds the per-iteration point-to-point traffic between ranks.
	P2P map[RankPair]Traffic
	// CollectivesPerIter is the number of allreduce operations per
	// iteration (shorthand for a Collectives entry; both may be used).
	CollectivesPerIter int
	// CollectiveBytes is the payload of each shorthand allreduce.
	CollectiveBytes float64
	// Collectives lists arbitrary per-iteration collective operations
	// priced by the α-β models in CollectiveCost.
	Collectives []CollectiveSpec
	// SetupSeconds is one-off start-up cost (problem setup, MPI_Init).
	SetupSeconds float64
}

// Validate checks internal consistency.
func (s *Shape) Validate() error {
	if s.Ranks <= 0 {
		return fmt.Errorf("mpisim: shape %q: non-positive rank count %d", s.Name, s.Ranks)
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("mpisim: shape %q: non-positive iteration count", s.Name)
	}
	if s.ComputeSecPerIter < 0 || s.SetupSeconds < 0 {
		return fmt.Errorf("mpisim: shape %q: negative time", s.Name)
	}
	for p, t := range s.P2P {
		if p.Lo < 0 || p.Hi >= s.Ranks || p.Lo >= p.Hi {
			return fmt.Errorf("mpisim: shape %q: invalid rank pair %v", s.Name, p)
		}
		if t.Bytes < 0 || t.Msgs < 0 {
			return fmt.Errorf("mpisim: shape %q: negative traffic for %v", s.Name, p)
		}
	}
	for _, c := range s.Collectives {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("mpisim: shape %q: %w", s.Name, err)
		}
	}
	return nil
}

// AddP2P accumulates traffic between ranks a and b.
func (s *Shape) AddP2P(a, b int, bytes float64, msgs int) {
	if a == b {
		return
	}
	if s.P2P == nil {
		s.P2P = make(map[RankPair]Traffic)
	}
	k := PairOf(a, b)
	t := s.P2P[k]
	t.Bytes += bytes
	t.Msgs += msgs
	s.P2P[k] = t
}

// Placement maps ranks to nodes.
type Placement struct {
	// NodeOf[rank] is the node the rank runs on.
	NodeOf []int
}

// NewPlacement block-assigns ranks to the given nodes with the given
// processes per node: ranks 0..ppn-1 on nodes[0], and so on. It errors if
// the node list cannot hold all ranks.
func NewPlacement(ranks int, nodes []int, ppn int) (Placement, error) {
	if ppn <= 0 {
		return Placement{}, fmt.Errorf("mpisim: non-positive ppn %d", ppn)
	}
	if len(nodes)*ppn < ranks {
		return Placement{}, fmt.Errorf("mpisim: %d nodes with ppn %d cannot hold %d ranks", len(nodes), ppn, ranks)
	}
	p := Placement{NodeOf: make([]int, ranks)}
	for r := 0; r < ranks; r++ {
		p.NodeOf[r] = nodes[r/ppn]
	}
	return p, nil
}

// Nodes returns the distinct nodes used, in first-use order.
func (p Placement) Nodes() []int {
	seen := make(map[int]bool)
	var out []int
	for _, n := range p.NodeOf {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// RanksOn returns how many ranks run on each used node.
func (p Placement) RanksOn() map[int]int {
	m := make(map[int]int)
	for _, n := range p.NodeOf {
		m[n]++
	}
	return m
}

// Validate checks the placement covers exactly shape.Ranks ranks.
func (p Placement) Validate(s *Shape) error {
	if len(p.NodeOf) != s.Ranks {
		return fmt.Errorf("mpisim: placement has %d ranks, shape %q wants %d", len(p.NodeOf), s.Name, s.Ranks)
	}
	for r, n := range p.NodeOf {
		if n < 0 {
			return fmt.Errorf("mpisim: rank %d on negative node %d", r, n)
		}
	}
	return nil
}

// --- Communication pattern builders -------------------------------------

// Dims3D factors p into three near-cubic process grid dimensions (the
// decomposition MPI_Dims_create would produce), with dims[0] >= dims[1] >=
// dims[2].
func Dims3D(p int) [3]int {
	best := [3]int{p, 1, 1}
	bestScore := math.Inf(1)
	for x := 1; x <= p; x++ {
		if p%x != 0 {
			continue
		}
		rem := p / x
		for y := 1; y <= rem; y++ {
			if rem%y != 0 {
				continue
			}
			z := rem / y
			// Prefer balanced factors: minimize surface ~ xy+yz+zx.
			score := float64(x*y + y*z + z*x)
			if score < bestScore {
				bestScore = score
				d := [3]int{x, y, z}
				sort3(&d)
				best = d
			}
		}
	}
	return best
}

func sort3(d *[3]int) {
	if d[0] < d[1] {
		d[0], d[1] = d[1], d[0]
	}
	if d[1] < d[2] {
		d[1], d[2] = d[2], d[1]
	}
	if d[0] < d[1] {
		d[0], d[1] = d[1], d[0]
	}
}

// Halo3D adds a 3-D nearest-neighbour halo-exchange pattern to s: ranks
// are arranged in the Dims3D grid and each rank exchanges bytesPerFace
// with each of its (up to) six face neighbours, msgsPerFace messages per
// face per iteration. Non-periodic boundaries.
func Halo3D(s *Shape, bytesPerFace float64, msgsPerFace int) {
	dims := Dims3D(s.Ranks)
	nx, ny, nz := dims[0], dims[1], dims[2]
	id := func(x, y, z int) int { return (x*ny+y)*nz + z }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				r := id(x, y, z)
				if x+1 < nx {
					s.AddP2P(r, id(x+1, y, z), bytesPerFace, msgsPerFace)
				}
				if y+1 < ny {
					s.AddP2P(r, id(x, y+1, z), bytesPerFace, msgsPerFace)
				}
				if z+1 < nz {
					s.AddP2P(r, id(x, y, z+1), bytesPerFace, msgsPerFace)
				}
			}
		}
	}
}

// Dims2D factors p into two near-square process grid dimensions with
// dims[0] >= dims[1] (MPI_Dims_create in two dimensions).
func Dims2D(p int) [2]int {
	best := [2]int{p, 1}
	for x := 1; x*x <= p; x++ {
		if p%x == 0 {
			best = [2]int{p / x, x}
		}
	}
	return best
}

// Halo2D adds a 2-D nearest-neighbour halo-exchange pattern: ranks form
// the Dims2D grid and each rank exchanges bytesPerEdge with each of its
// (up to) four edge neighbours, msgsPerEdge messages per edge per
// iteration. Non-periodic boundaries.
func Halo2D(s *Shape, bytesPerEdge float64, msgsPerEdge int) {
	dims := Dims2D(s.Ranks)
	nx, ny := dims[0], dims[1]
	id := func(x, y int) int { return x*ny + y }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			r := id(x, y)
			if x+1 < nx {
				s.AddP2P(r, id(x+1, y), bytesPerEdge, msgsPerEdge)
			}
			if y+1 < ny {
				s.AddP2P(r, id(x, y+1), bytesPerEdge, msgsPerEdge)
			}
		}
	}
}

// Ring adds a ring exchange: each rank sends bytes to (rank+1) mod Ranks.
func Ring(s *Shape, bytes float64, msgs int) {
	for r := 0; r < s.Ranks; r++ {
		s.AddP2P(r, (r+1)%s.Ranks, bytes, msgs)
	}
}

// Log2Ceil returns ceil(log2(n)) with Log2Ceil(1) == 0.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}
