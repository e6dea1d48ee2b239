package apps

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/mpisim"
)

// flatEnv mirrors the mpisim test environment for app-level checks.
type flatEnv struct {
	bwBps   float64
	latency time.Duration
	bgLoad  float64
}

func (e flatEnv) NodeCores(int) int                         { return 12 }
func (e flatEnv) NodeFreqGHz(int) float64                   { return 4.6 }
func (e flatEnv) NodeBackgroundLoad(int, int) float64       { return e.bgLoad }
func (e flatEnv) AvailBandwidthBps(u, v int, _ int) float64 { return e.bwBps }
func (e flatEnv) Latency(u, v int) time.Duration            { return e.latency }

func idle() flatEnv {
	return flatEnv{bwBps: 110e6, latency: 130 * time.Microsecond}
}

func run(t *testing.T, shape *mpisim.Shape, nodes []int, ppn int, env mpisim.Env) mpisim.Result {
	t.Helper()
	place, err := mpisim.NewPlacement(shape.Ranks, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	j, err := mpisim.NewJob(1, shape, place, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		_, done = j.Advance(env, time.Minute)
	}
	return j.Result()
}

func TestMiniMDAtomCounts(t *testing.T) {
	// Paper: s=8 -> 2K atoms, s=48 -> 442K atoms.
	if got := (MiniMDParams{S: 8}).Atoms(); got != 2048 {
		t.Fatalf("s=8 atoms = %d", got)
	}
	if got := (MiniMDParams{S: 48}).Atoms(); got != 442368 {
		t.Fatalf("s=48 atoms = %d", got)
	}
}

func TestMiniFERows(t *testing.T) {
	if got := (MiniFEParams{NX: 48}).Rows(); got != 48*48*48 {
		t.Fatalf("nx=48 rows = %d", got)
	}
	if got := (MiniFEParams{NX: 10, NY: 20, NZ: 30}).Rows(); got != 6000 {
		t.Fatalf("explicit dims rows = %d", got)
	}
}

func TestMiniMDShapeStructure(t *testing.T) {
	s, err := MiniMD(MiniMDParams{S: 16}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ranks != 32 || s.Iterations != 100 {
		t.Fatalf("shape %+v", s)
	}
	if len(s.P2P) == 0 {
		t.Fatal("no halo pattern")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMiniMDErrors(t *testing.T) {
	if _, err := MiniMD(MiniMDParams{S: 0}, 8); err == nil {
		t.Fatal("s=0 accepted")
	}
	if _, err := MiniMD(MiniMDParams{S: 8, Steps: -1}, 8); err == nil {
		t.Fatal("negative steps accepted")
	}
	if _, err := MiniMD(MiniMDParams{S: 8}, 0); err == nil {
		t.Fatal("0 ranks accepted")
	}
}

func TestMiniFEErrors(t *testing.T) {
	if _, err := MiniFE(MiniFEParams{NX: 0}, 8); err == nil {
		t.Fatal("nx=0 accepted")
	}
	if _, err := MiniFE(MiniFEParams{NX: 48, Iters: -1}, 8); err == nil {
		t.Fatal("negative iters accepted")
	}
}

func TestMiniMDCommFractionInPaperRange(t *testing.T) {
	// Paper: miniMD spends 40-80% of time communicating. Check a middle
	// configuration on an idle cluster.
	s, err := MiniMD(MiniMDParams{S: 16}, 32)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, s, []int{0, 1, 2, 3, 4, 5, 6, 7}, 4, idle())
	f := res.CommFraction()
	if f < 0.25 || f > 0.9 {
		t.Fatalf("miniMD comm fraction %.0f%%, paper range 40-80%%", f*100)
	}
}

func TestCommFractionsInPaperRegime(t *testing.T) {
	// Paper §5: on the live (loaded) cluster miniMD spends 40-80% of its
	// time communicating and miniFE 25-60%. Reproduce the measurement on
	// a loaded environment (inflated latency, reduced bandwidth).
	loaded := flatEnv{bwBps: 40e6, latency: 600 * time.Microsecond}
	md, _ := MiniMD(MiniMDParams{S: 16}, 48)
	fe, _ := MiniFE(MiniFEParams{NX: 144}, 48)
	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	mdRes := run(t, md, nodes, 4, loaded)
	feRes := run(t, fe, nodes, 4, loaded)
	if f := mdRes.CommFraction(); f < 0.4 || f > 0.9 {
		t.Fatalf("miniMD comm fraction %.0f%%, paper range 40-80%%", f*100)
	}
	if f := feRes.CommFraction(); f < 0.2 || f > 0.7 {
		t.Fatalf("miniFE comm fraction %.0f%%, paper range 25-60%%", f*100)
	}
}

func TestMiniMDStrongScalingReducesComputeTime(t *testing.T) {
	// More processes -> less compute per rank -> shorter compute phase.
	small, _ := MiniMD(MiniMDParams{S: 32}, 8)
	large, _ := MiniMD(MiniMDParams{S: 32}, 64)
	res8 := run(t, small, []int{0, 1}, 4, idle())
	res64 := run(t, large, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4, idle())
	if res64.ComputeTime >= res8.ComputeTime {
		t.Fatalf("compute did not shrink with scale: %v -> %v", res8.ComputeTime, res64.ComputeTime)
	}
}

func TestMiniMDProblemSizeScalesTime(t *testing.T) {
	small, _ := MiniMD(MiniMDParams{S: 8}, 8)
	big, _ := MiniMD(MiniMDParams{S: 32}, 8)
	nodes := []int{0, 1}
	ts := run(t, small, nodes, 4, idle())
	tb := run(t, big, nodes, 4, idle())
	// 64x more atoms must cost much more time.
	if tb.Elapsed < ts.Elapsed*8 {
		t.Fatalf("s=8: %v, s=32: %v — size barely matters", ts.Elapsed, tb.Elapsed)
	}
}

func TestMiniAppsDegradeUnderBadNetwork(t *testing.T) {
	congested := flatEnv{bwBps: 10e6, latency: 2 * time.Millisecond}
	for name, mk := range map[string]func() (*mpisim.Shape, error){
		"miniMD": func() (*mpisim.Shape, error) { return MiniMD(MiniMDParams{S: 16}, 16) },
		"miniFE": func() (*mpisim.Shape, error) { return MiniFE(MiniFEParams{NX: 96}, 16) },
	} {
		sGood, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		sBad, _ := mk()
		nodes := []int{0, 1, 2, 3}
		good := run(t, sGood, nodes, 4, idle())
		bad := run(t, sBad, nodes, 4, congested)
		if bad.Elapsed < good.Elapsed*2 {
			t.Fatalf("%s: congestion barely hurts: %v -> %v", name, good.Elapsed, bad.Elapsed)
		}
	}
}

func TestSuggestAlphaBeta(t *testing.T) {
	cases := []struct {
		comm        float64
		alpha, beta float64
	}{
		{0.7, 0.3, 0.7}, // miniMD regime
		{0.6, 0.4, 0.6}, // miniFE regime
		{0.0, 0.9, 0.1}, // pure compute still keeps some β
		{1.0, 0.1, 0.9}, // pure comm keeps some α
		{-1, 0.9, 0.1},  // clamped
		{2, 0.1, 0.9},   // clamped
	}
	for _, c := range cases {
		a, b := SuggestAlphaBeta(c.comm)
		if math.Abs(a-c.alpha) > 1e-9 || math.Abs(b-c.beta) > 1e-9 {
			t.Errorf("SuggestAlphaBeta(%g) = %g/%g, want %g/%g", c.comm, a, b, c.alpha, c.beta)
		}
		if math.Abs(a+b-1) > 1e-9 {
			t.Errorf("α+β = %g", a+b)
		}
	}
}

func TestPaperAlphaBeta(t *testing.T) {
	a, b := PaperAlphaBetaMiniMD()
	if a != 0.3 || b != 0.7 {
		t.Fatalf("miniMD α/β = %g/%g", a, b)
	}
	a, b = PaperAlphaBetaMiniFE()
	if a != 0.4 || b != 0.6 {
		t.Fatalf("miniFE α/β = %g/%g", a, b)
	}
}

func TestStencil2DShape(t *testing.T) {
	s, err := Stencil2D(Stencil2DParams{N: 1024}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ranks != 16 || s.Iterations != 500 {
		t.Fatalf("shape %+v", s)
	}
	// 4x4 grid: 24 edge-adjacent pairs.
	if len(s.P2P) != 24 {
		t.Fatalf("stencil pairs %d, want 24", len(s.P2P))
	}
	if s.CollectivesPerIter != 1 || s.CollectiveBytes != 8 {
		t.Fatalf("allreduces per sweep %d x %g bytes, want 1 x 8", s.CollectivesPerIter, s.CollectiveBytes)
	}
}

func TestStencil2DErrors(t *testing.T) {
	if _, err := Stencil2D(Stencil2DParams{N: 0}, 4); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Stencil2D(Stencil2DParams{N: 64, Steps: -1}, 4); err == nil {
		t.Fatal("negative steps accepted")
	}
	if _, err := Stencil2D(Stencil2DParams{N: 64}, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestStencil2DRuns(t *testing.T) {
	s, err := Stencil2D(Stencil2DParams{N: 512, Steps: 50}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, s, []int{0, 1}, 4, idle())
	if res.Elapsed <= 0 {
		t.Fatalf("result %+v", res)
	}
	// Latency-sensitive: a high-latency environment must hurt.
	s2, _ := Stencil2D(Stencil2DParams{N: 512, Steps: 50}, 8)
	slow := flatEnv{bwBps: 100e6, latency: 3 * time.Millisecond}
	res2 := run(t, s2, []int{0, 1}, 4, slow)
	if res2.Elapsed < res.Elapsed*2 {
		t.Fatalf("latency insensitivity: %v vs %v", res.Elapsed, res2.Elapsed)
	}
}
