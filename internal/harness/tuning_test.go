package harness

import (
	"strings"
	"testing"
)

func tinyTuningConfig(seed uint64) TuningConfig {
	return TuningConfig{
		Seed:            seed,
		RegretDecisions: 6,
		CounterfactualK: 3,
		Nodes:           32,
		Jobs:            250,
		TrainSeeds:      2,
		HoldoutSeeds:    2,
		Population:      3,
		Generations:     1,
	}
}

// TestRunTuningReport pins the tuning artifact's substance: the live
// regret trace evaluates real decisions with retained counterfactuals,
// the study recommends weights no worse than the paper baseline, and the
// recommendation carries to at least one held-out seed.
func TestRunTuningReport(t *testing.T) {
	d, err := RunTuning(tinyTuningConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if d.Regret.Decisions != 6 {
		t.Fatalf("regret trace has %d decisions, want 6", d.Regret.Decisions)
	}
	if d.Regret.Evaluated == 0 {
		t.Fatal("no decision retained counterfactual candidates")
	}
	if d.Result.Best.Score > d.Result.Baseline.Score {
		t.Fatalf("recommendation %g worse than baseline %g",
			d.Result.Best.Score, d.Result.Baseline.Score)
	}
	if d.Result.HoldoutWins < 1 {
		t.Fatalf("recommended weights beat the baseline on 0/%d held-out seeds",
			len(d.Result.Holdout))
	}
	out := d.Render()
	for _, want := range []string{"Counterfactual regret trace", "Recommended weights", "Holdout", "report digest "} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunTuningDeterministic is the in-process half of the CI
// determinism gate: same config, byte-identical report.
func TestRunTuningDeterministic(t *testing.T) {
	a, err := RunTuning(tinyTuningConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTuning(tinyTuningConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Fatalf("tuning report diverged across runs:\n--- a ---\n%s\n--- b ---\n%s", ra, rb)
	}
	if a.Result.Digest() != b.Result.Digest() {
		t.Fatal("tuner result digest diverged across runs")
	}
}
