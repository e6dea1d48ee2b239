package harness

import (
	"reflect"
	"testing"
)

// TestBackfillExperimentImproves is the acceptance check for the
// backfill scheduler: on the scripted contention scenario, EASY backfill
// strictly reduces mean wait and makespan versus FIFO, actually
// backfills jobs, and starves nothing in either mode.
func TestBackfillExperimentImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("full queue experiment")
	}
	res, err := RunBackfill(BackfillConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modes) != 2 {
		t.Fatalf("modes %+v", res.Modes)
	}
	fifo, bf := res.Modes[0], res.Modes[1]
	if fifo.Mode != "fifo" || bf.Mode != "backfill" {
		t.Fatalf("mode order %q %q", fifo.Mode, bf.Mode)
	}
	if fifo.Failed != 0 || bf.Failed != 0 {
		t.Fatalf("starved jobs: fifo %d backfill %d", fifo.Failed, bf.Failed)
	}
	if fifo.Backfilled != 0 {
		t.Fatalf("FIFO mode backfilled %d jobs", fifo.Backfilled)
	}
	if bf.Backfilled == 0 {
		t.Fatal("backfill mode never backfilled")
	}
	if bf.MeanWaitSec >= fifo.MeanWaitSec {
		t.Fatalf("mean wait not improved: backfill %.1fs vs fifo %.1fs", bf.MeanWaitSec, fifo.MeanWaitSec)
	}
	if bf.MakespanSec >= fifo.MakespanSec {
		t.Fatalf("makespan not improved: backfill %.1fs vs fifo %.1fs", bf.MakespanSec, fifo.MakespanSec)
	}
	t.Logf("\n%s", FormatBackfill(res))
}

// TestBackfillExperimentDeterministic re-runs the backfill mode and
// demands identical numbers — the whole stack is seeded.
func TestBackfillExperimentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full queue experiment")
	}
	a, err := runBackfillMode(BackfillConfig{Seed: 5, Shorts: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBackfillMode(BackfillConfig{Seed: 5, Shorts: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*a, *b) {
		t.Fatalf("experiment not deterministic:\n%+v\n%+v", *a, *b)
	}
}

// TestBackfillEventClockReproducesPaperNumbers pins the default
// experiment's documented mean waits (DESIGN.md section 11: 1350s FIFO,
// 171s backfill) exactly, not approximately: the experiment is
// deterministic down to the event, so any drift is a behaviour change.
func TestBackfillEventClockReproducesPaperNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("full queue experiment")
	}
	res, err := RunBackfill(BackfillConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modes[0].MeanWaitSec != 1350.0 {
		t.Errorf("fifo mean wait %.2fs under event clock, want 1350.00s", res.Modes[0].MeanWaitSec)
	}
	if res.Modes[1].MeanWaitSec != 171.0 {
		t.Errorf("backfill mean wait %.2fs under event clock, want 171.00s", res.Modes[1].MeanWaitSec)
	}
	if res.Modes[0].Failed+res.Modes[1].Failed != 0 {
		t.Errorf("event clock starved jobs: %+v", res.Modes)
	}
}
