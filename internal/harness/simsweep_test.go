package harness

import (
	"strings"
	"testing"
)

func TestRunSimSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := SimSweepConfig{Seed: 7, Runs: 3, Nodes: 64, Jobs: 400, Workers: 1}
	one, err := RunSimSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	many, err := RunSimSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.Sweep.Digest != many.Sweep.Digest {
		t.Fatalf("sweep digest depends on worker count: %s vs %s", one.Sweep.Digest, many.Sweep.Digest)
	}
	if len(one.Sweep.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(one.Sweep.Results))
	}
	out := one.Render()
	if !strings.Contains(out, "capacity fidelity") || !strings.Contains(out, "3 runs") {
		t.Fatalf("unexpected format output:\n%s", out)
	}
}

func TestRunSimSweepPolicy(t *testing.T) {
	d, err := RunSimSweep(SimSweepConfig{Seed: 11, Runs: 2, Nodes: 64, Jobs: 300, Policy: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range d.Sweep.Results {
		if res.Policy == nil {
			t.Fatalf("run %d missing policy stats", i)
		}
		if res.Policy.ModelBuilds != 1 {
			t.Fatalf("run %d: %d model builds, want 1", i, res.Policy.ModelBuilds)
		}
		if res.Policy.Decisions == 0 {
			t.Fatalf("run %d: no placement decisions", i)
		}
	}
	out := d.Render()
	if !strings.Contains(out, "policy fidelity") || !strings.Contains(out, "1 build/run") {
		t.Fatalf("unexpected format output:\n%s", out)
	}
}
