// Package apps models the two Mantevo mini-applications the paper
// evaluates with — miniMD (molecular dynamics, spatial decomposition) and
// miniFE (implicit finite elements, CG solver) — as mpisim shapes.
//
// The models capture what determines these codes' sensitivity to node
// allocation:
//
//   - miniMD: per-timestep force computation proportional to atoms/rank,
//     plus a six-face halo exchange whose volume scales with the subdomain
//     surface (~(atoms/rank)^(2/3)) and whose cost is latency-dominated at
//     small problem sizes — the paper measured 40-80% of time in
//     communication.
//   - miniFE: per-CG-iteration SpMV proportional to rows/rank, a surface
//     halo exchange, and two latency-bound dot-product allreduces per
//     iteration — the paper measured 25-60% communication.
//
// Constants are calibrated so simulated runs land in the paper's regime
// (seconds to tens of seconds, with the reported communication fractions
// on an idle cluster); absolute times on the authors' hardware are not
// reproducible, the scaling *shape* is.
package apps

import (
	"fmt"
	"math"

	"nlarm/internal/mpisim"
)

// RefFreqGHz is the CPU clock all compute constants are calibrated for
// (the testbed's fast nodes).
const RefFreqGHz = 4.6

// --- miniMD ----------------------------------------------------------------

// MiniMDParams selects a miniMD run. The paper varies S from 8 to 48
// (2K-442K atoms) and runs on 8-64 processes at 4 processes/node.
type MiniMDParams struct {
	// S is the problem size: the simulation box is S³ FCC unit cells with
	// 4 atoms each, so S=8 → 2,048 atoms and S=48 → 442,368 atoms,
	// matching the paper's "2K - 442K atoms".
	S int
	// Steps is the number of MD timesteps (default 100, miniMD's default).
	Steps int
}

// Atoms returns the atom count 4·S³.
func (p MiniMDParams) Atoms() int { return 4 * p.S * p.S * p.S }

const (
	// miniMDForceSecPerAtom is the per-atom per-timestep compute cost at
	// RefFreqGHz (force evaluation + neighbor maintenance on the paper's
	// lab nodes).
	miniMDForceSecPerAtom = 8e-6
	// miniMDBytesPerHaloAtom is the payload exchanged per border atom per
	// step (positions out, forces back; 3 doubles each way).
	miniMDBytesPerHaloAtom = 48
	// miniMDHaloLayers is the ghost-shell thickness in atom layers
	// (cutoff 2.8σ over an FCC lattice).
	miniMDHaloLayers = 1.7
	// miniMDMsgsPerFace is messages per face per step (position exchange
	// and reverse force communication, send+receive).
	miniMDMsgsPerFace = 4
)

// MiniMD builds the miniMD shape for the given parameters and rank count.
func MiniMD(p MiniMDParams, ranks int) (*mpisim.Shape, error) {
	if p.S <= 0 {
		return nil, fmt.Errorf("apps: miniMD size %d", p.S)
	}
	if p.Steps == 0 {
		p.Steps = 100
	}
	if p.Steps < 0 || ranks <= 0 {
		return nil, fmt.Errorf("apps: miniMD steps=%d ranks=%d", p.Steps, ranks)
	}
	atoms := float64(p.Atoms())
	perRank := atoms / float64(ranks)
	s := &mpisim.Shape{
		Name:              fmt.Sprintf("miniMD(s=%d,p=%d)", p.S, ranks),
		Ranks:             ranks,
		Iterations:        p.Steps,
		ComputeSecPerIter: miniMDForceSecPerAtom * perRank,
		RefFreqGHz:        RefFreqGHz,
		// Thermo output every few steps: one small allreduce amortized.
		CollectivesPerIter: 1,
		CollectiveBytes:    64,
		SetupSeconds:       0.2 + atoms*1e-8,
	}
	// Halo exchange across the six faces of each rank's subdomain.
	haloAtoms := miniMDHaloLayers * math.Pow(perRank, 2.0/3.0)
	bytesPerFace := haloAtoms * miniMDBytesPerHaloAtom
	mpisim.Halo3D(s, bytesPerFace, miniMDMsgsPerFace)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- miniFE ----------------------------------------------------------------

// MiniFEParams selects a miniFE run. The paper varies nx from 48 to 384
// with ny=nz=nx, on 8-48 processes at 4 processes/node.
type MiniFEParams struct {
	// NX, NY, NZ are the global element counts per dimension; zero NY/NZ
	// default to NX (the paper sets ny=nz=nx).
	NX, NY, NZ int
	// Iters is the number of CG iterations (default 200, miniFE's cap).
	Iters int
}

// Rows returns the number of unknowns (≈ element count for the
// hexahedral brick).
func (p MiniFEParams) Rows() int {
	ny, nz := p.NY, p.NZ
	if ny == 0 {
		ny = p.NX
	}
	if nz == 0 {
		nz = p.NX
	}
	return p.NX * ny * nz
}

const (
	// miniFESecPerRow is the per-row per-CG-iteration compute cost at
	// RefFreqGHz: a 27-point SpMV plus the vector updates. CG is
	// memory-bandwidth-bound on desktop nodes (~450 bytes touched per row
	// per iteration against a few GB/s of effective stream bandwidth).
	miniFESecPerRow = 120e-9
	// miniFEBytesPerFacePoint is the payload per boundary point per halo
	// exchange (one double).
	miniFEBytesPerFacePoint = 8
	// miniFEMsgsPerFace is messages per face per iteration (halo
	// send+receive).
	miniFEMsgsPerFace = 2
	// miniFESetupSecPerRow is the one-off assembly cost per row (FE
	// operator generation and matrix structure setup are comparable to a
	// few solver iterations).
	miniFESetupSecPerRow = 8e-7
)

// MiniFE builds the miniFE shape for the given parameters and rank count.
func MiniFE(p MiniFEParams, ranks int) (*mpisim.Shape, error) {
	if p.NX <= 0 {
		return nil, fmt.Errorf("apps: miniFE nx %d", p.NX)
	}
	if p.Iters == 0 {
		p.Iters = 200
	}
	if p.Iters < 0 || ranks <= 0 {
		return nil, fmt.Errorf("apps: miniFE iters=%d ranks=%d", p.Iters, ranks)
	}
	rows := float64(p.Rows())
	perRank := rows / float64(ranks)
	s := &mpisim.Shape{
		Name:              fmt.Sprintf("miniFE(nx=%d,p=%d)", p.NX, ranks),
		Ranks:             ranks,
		Iterations:        p.Iters,
		ComputeSecPerIter: miniFESecPerRow * perRank,
		RefFreqGHz:        RefFreqGHz,
		// Two dot products per CG iteration, each an 8-byte allreduce.
		CollectivesPerIter: 2,
		CollectiveBytes:    8,
		SetupSeconds:       0.1 + perRank*miniFESetupSecPerRow,
	}
	facePoints := math.Pow(perRank, 2.0/3.0)
	bytesPerFace := facePoints * miniFEBytesPerFacePoint
	mpisim.Halo3D(s, bytesPerFace, miniFEMsgsPerFace)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- stencil2d ---------------------------------------------------------------

// Stencil2DParams selects a 2-D Jacobi heat-diffusion run — a third
// workload (beyond the paper's two) exercising the broker with a
// bandwidth-light, latency-sensitive iteration structure and a per-sweep
// residual allreduce built on the collective cost models.
type Stencil2DParams struct {
	// N is the global grid edge (N×N doubles).
	N int
	// Steps is the number of Jacobi sweeps (default 500).
	Steps int
}

const (
	// stencilSecPerPoint is the per-point per-sweep compute cost at
	// RefFreqGHz (5-point stencil, memory-bound).
	stencilSecPerPoint = 6e-9
	// stencilBytesPerEdgePoint is the halo payload per boundary point.
	stencilBytesPerEdgePoint = 8
)

// Stencil2D builds the Jacobi shape for the given parameters and ranks.
func Stencil2D(p Stencil2DParams, ranks int) (*mpisim.Shape, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("apps: stencil2d N %d", p.N)
	}
	if p.Steps == 0 {
		p.Steps = 500
	}
	if p.Steps < 0 || ranks <= 0 {
		return nil, fmt.Errorf("apps: stencil2d steps=%d ranks=%d", p.Steps, ranks)
	}
	points := float64(p.N) * float64(p.N)
	perRank := points / float64(ranks)
	s := &mpisim.Shape{
		Name:              fmt.Sprintf("stencil2d(n=%d,p=%d)", p.N, ranks),
		Ranks:             ranks,
		Iterations:        p.Steps,
		ComputeSecPerIter: stencilSecPerPoint * perRank,
		RefFreqGHz:        RefFreqGHz,
		// Per-sweep residual norm: one 8-byte allreduce.
		CollectivesPerIter: 1,
		CollectiveBytes:    8,
		SetupSeconds:       0.05 + perRank*2e-8,
	}
	// Each subdomain edge is ~sqrt(perRank) points.
	edgeBytes := math.Sqrt(perRank) * stencilBytesPerEdgePoint
	mpisim.Halo2D(s, edgeBytes, 2)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- Profiling-guided α/β ---------------------------------------------------

// SuggestAlphaBeta derives Equation 4's weights from a measured
// communication fraction (§5: "One may set these weights by profiling an
// application and decide the relative weights on the basis of the
// computation and communication times"). The fraction is clamped and
// quantized to a 0.1 grid with both weights kept in [0.1, 0.9], matching
// how the authors picked 0.3/0.7 (miniMD, 40-80% comm) and 0.4/0.6
// (miniFE, 25-60% comm) empirically.
func SuggestAlphaBeta(commFraction float64) (alpha, beta float64) {
	if commFraction < 0 {
		commFraction = 0
	}
	if commFraction > 1 {
		commFraction = 1
	}
	beta = math.Round(commFraction*10) / 10
	if beta < 0.1 {
		beta = 0.1
	}
	if beta > 0.9 {
		beta = 0.9
	}
	return 1 - beta, beta
}

// PaperAlphaBetaMiniMD returns the α/β the paper uses for miniMD.
func PaperAlphaBetaMiniMD() (alpha, beta float64) { return 0.3, 0.7 }

// PaperAlphaBetaMiniFE returns the α/β the paper uses for miniFE.
func PaperAlphaBetaMiniFE() (alpha, beta float64) { return 0.4, 0.6 }
