package harness

import (
	"testing"

	"nlarm/internal/apps"
	"nlarm/internal/rng"
)

func TestProfileMiniMDSuggestsNetworkHeavyWeights(t *testing.T) {
	s := smallSession(t, 31)
	shape, err := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProfileShape(shape, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommFraction <= 0 || rep.CommFraction >= 1 {
		t.Fatalf("comm fraction %g", rep.CommFraction)
	}
	if rep.Alpha+rep.Beta < 0.999 || rep.Alpha+rep.Beta > 1.001 {
		t.Fatalf("α+β = %g", rep.Alpha+rep.Beta)
	}
	// The derived β must follow the measured fraction (SuggestAlphaBeta's
	// contract: quantized to 0.1 and clamped to [0.1, 0.9]).
	wantAlpha, wantBeta := apps.SuggestAlphaBeta(rep.CommFraction)
	if rep.Alpha != wantAlpha || rep.Beta != wantBeta {
		t.Fatalf("weights %g/%g do not match measured fraction %g (want %g/%g)",
			rep.Alpha, rep.Beta, rep.CommFraction, wantAlpha, wantBeta)
	}
	// The profiling run itself was shortened.
	if rep.Result.Elapsed <= 0 {
		t.Fatal("no profiling run recorded")
	}
}

func TestProfileShortensRun(t *testing.T) {
	s := smallSession(t, 32)
	shape, err := apps.MiniMD(apps.MiniMDParams{S: 16, Steps: 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProfileShape(shape, 4, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// 20% of 100 steps: the profile run must be several times shorter
	// than the full job would be.
	full, err := apps.MiniMD(apps.MiniMDParams{S: 16, Steps: 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations != 100 {
		t.Fatalf("shape mutated: %d iterations", full.Iterations)
	}
	if rep.Result.Elapsed.Seconds() > 0.5*float64(full.Iterations)*shape.ComputeSecPerIter*2 {
		t.Logf("profile elapsed %v (informational)", rep.Result.Elapsed)
	}
	if shape.Iterations != 100 {
		t.Fatalf("ProfileShape mutated the input shape: %d", shape.Iterations)
	}
}

func TestProfileAndRun(t *testing.T) {
	s := smallSession(t, 33)
	shape, err := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 50}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, res, err := s.ProfileAndRun(shape, 4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || res.Elapsed <= 0 {
		t.Fatalf("report %v result %+v", rep, res)
	}
	// The full run uses the original iteration count.
	if res.Elapsed <= rep.Result.Elapsed {
		t.Fatalf("full run (%v) not longer than profile (%v)", res.Elapsed, rep.Result.Elapsed)
	}
}

func TestProfileMiniFE(t *testing.T) {
	s := smallSession(t, 34)
	shape, err := apps.MiniFE(apps.MiniFEParams{NX: 32, Iters: 50}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProfileShape(shape, 4, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alpha <= 0 || rep.Beta <= 0 {
		t.Fatalf("weights %g/%g", rep.Alpha, rep.Beta)
	}
}
