package world

import (
	"testing"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/mpisim"
	"nlarm/internal/simtime"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// running reports whether job id is still executing in w.
func running(w *World, id int) bool {
	for _, j := range w.jobs {
		if j.ID == id {
			return true
		}
	}
	return false
}

func testWorld(t *testing.T, seed uint64) *World {
	t.Helper()
	cl, err := cluster.BuildIITK()
	if err != nil {
		t.Fatal(err)
	}
	return New(cl, Config{Seed: seed, StepSize: 100 * time.Millisecond}, t0)
}

func advance(w *World, from time.Time, dur, step time.Duration) time.Time {
	now := from
	end := from.Add(dur)
	for tm := from.Add(step); !tm.After(end); tm = tm.Add(step) {
		w.StepTo(tm)
		now = tm
	}
	return now
}

func TestStepToMonotonic(t *testing.T) {
	w := testWorld(t, 1)
	w.StepTo(t0.Add(time.Second))
	if !w.now.Equal(t0.Add(time.Second)) {
		t.Fatalf("now = %v", w.now)
	}
	// Going backwards is a no-op.
	w.StepTo(t0)
	if !w.now.Equal(t0.Add(time.Second)) {
		t.Fatal("StepTo moved time backwards")
	}
}

func TestSampleNode(t *testing.T) {
	w := testWorld(t, 2)
	advance(w, t0, time.Minute, time.Second)
	s, err := w.SampleNode(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.CPULoad < 0 || s.CPUUtilPct < 0 || s.CPUUtilPct > 100 {
		t.Fatalf("sample out of range: %+v", s)
	}
	if _, err := w.SampleNode(-1); err == nil {
		t.Fatal("negative node sampled")
	}
	if _, err := w.SampleNode(999); err == nil {
		t.Fatal("out-of-range node sampled")
	}
}

func TestNodeDownBehaviour(t *testing.T) {
	w := testWorld(t, 3)
	w.SetNodeDown(5, true)
	if w.Ping(5) {
		t.Fatal("down node pings")
	}
	if _, err := w.SampleNode(5); err == nil {
		t.Fatal("down node sampled")
	}
	if _, err := w.MeasureLatency(5, 6); err == nil {
		t.Fatal("latency to down node measured")
	}
	if _, _, err := w.MeasureBandwidth(4, 5); err == nil {
		t.Fatal("bandwidth to down node measured")
	}
	w.SetNodeDown(5, false)
	if !w.Ping(5) {
		t.Fatal("revived node does not ping")
	}
}

func TestMeasurements(t *testing.T) {
	w := testWorld(t, 4)
	lat, err := w.MeasureLatency(0, 59)
	if err != nil || lat <= 0 {
		t.Fatalf("latency %v %v", lat, err)
	}
	avail, peak, err := w.MeasureBandwidth(0, 1)
	if err != nil || avail <= 0 || peak <= 0 {
		t.Fatalf("bandwidth %g %g %v", avail, peak, err)
	}
	if avail > peak*1.2 {
		t.Fatalf("available %g far exceeds peak %g", avail, peak)
	}
}

func simpleShape(ranks, iters int) *mpisim.Shape {
	s := &mpisim.Shape{
		Name: "test-job", Ranks: ranks, Iterations: iters,
		ComputeSecPerIter: 0.01, RefFreqGHz: 4.6,
	}
	mpisim.Halo3D(s, 100e3, 2)
	return s
}

func TestJobLifecycle(t *testing.T) {
	w := testWorld(t, 5)
	place, err := mpisim.NewPlacement(8, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var result mpisim.Result
	gotResult := false
	id, err := w.LaunchJob(simpleShape(8, 50), place, func(r mpisim.Result) {
		result = r
		gotResult = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !running(w, id) {
		t.Fatal("job not running after launch")
	}
	if len(w.jobs) != 1 {
		t.Fatalf("%d running jobs, want 1", len(w.jobs))
	}
	now := t0
	for i := 0; i < 10000 && running(w, id); i++ {
		now = now.Add(100 * time.Millisecond)
		w.StepTo(now)
	}
	if running(w, id) {
		t.Fatal("job never finished")
	}
	if !gotResult {
		t.Fatal("completion callback not fired")
	}
	if result.Elapsed <= 0 || result.Ranks != 8 {
		t.Fatalf("result %+v", result)
	}
	results := w.results
	if len(results) != 1 || results[0].JobID != id {
		t.Fatalf("Results = %v", results)
	}
}

func TestJobRaisesNodeLoad(t *testing.T) {
	w := testWorld(t, 6)
	before, _ := w.SampleNode(0)
	place, _ := mpisim.NewPlacement(4, []int{0}, 4)
	_, err := w.LaunchJob(simpleShape(4, 100000), place, nil)
	if err != nil {
		t.Fatal(err)
	}
	during, _ := w.SampleNode(0)
	if during.CPULoad < before.CPULoad+3.9 {
		t.Fatalf("job ranks not visible in load: %g -> %g", before.CPULoad, during.CPULoad)
	}
	if during.CPUUtilPct <= before.CPUUtilPct {
		t.Fatal("job not visible in utilization")
	}
	if during.UsedMemMB <= before.UsedMemMB {
		t.Fatal("job not visible in memory")
	}
}

func TestJobTrafficVisibleOnNetwork(t *testing.T) {
	w := testWorld(t, 7)
	// Heavy communication job across a trunk.
	s := &mpisim.Shape{Name: "net-heavy", Ranks: 2, Iterations: 1000000, RefFreqGHz: 4.6}
	s.AddP2P(0, 1, 5e6, 1)
	place, _ := mpisim.NewPlacement(2, []int{0, 16}, 1)
	before, _, _ := w.MeasureBandwidth(1, 17) // same trunk, different nodes
	if _, err := w.LaunchJob(s, place, nil); err != nil {
		t.Fatal(err)
	}
	// One step so flows are charged.
	w.StepTo(t0.Add(200 * time.Millisecond))
	after, _, _ := w.MeasureBandwidth(1, 17)
	if after >= before {
		t.Fatalf("job traffic invisible to bystanders: %g -> %g", before, after)
	}
}

func TestLaunchJobValidation(t *testing.T) {
	w := testWorld(t, 8)
	place, _ := mpisim.NewPlacement(4, []int{0}, 4)
	w.SetNodeDown(0, true)
	if _, err := w.LaunchJob(simpleShape(4, 10), place, nil); err == nil {
		t.Fatal("launch on down node accepted")
	}
	w.SetNodeDown(0, false)
	bad := mpisim.Placement{NodeOf: []int{0, 1, 2, 999}}
	if _, err := w.LaunchJob(simpleShape(4, 10), bad, nil); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}

func TestInjectProbeExpires(t *testing.T) {
	w := testWorld(t, 9)
	before, _, _ := w.MeasureBandwidth(0, 1)
	w.InjectProbe(0, 1, 100e6, 500*time.Millisecond)
	w.StepTo(t0.Add(100 * time.Millisecond))
	during, _, _ := w.MeasureBandwidth(0, 1)
	if during >= before {
		t.Fatalf("probe traffic invisible: %g -> %g", before, during)
	}
	w.StepTo(t0.Add(2 * time.Second))
	after, _, _ := w.MeasureBandwidth(0, 1)
	if after <= during {
		t.Fatal("probe traffic never expired")
	}
}

func TestAttachDrivesWorld(t *testing.T) {
	w := testWorld(t, 10)
	sched := simtime.NewScheduler(t0)
	cancel := w.Attach(sched)
	defer cancel()
	sched.RunFor(time.Second)
	if !w.now.Equal(t0.Add(time.Second)) {
		t.Fatalf("attached world at %v", w.now)
	}
}

func TestDeterministicWorlds(t *testing.T) {
	w1 := testWorld(t, 77)
	w2 := testWorld(t, 77)
	advance(w1, t0, 2*time.Minute, time.Second)
	advance(w2, t0, 2*time.Minute, time.Second)
	for id := 0; id < 60; id += 7 {
		s1, _ := w1.SampleNode(id)
		s2, _ := w2.SampleNode(id)
		if s1 != s2 {
			t.Fatalf("worlds diverged at node %d: %+v vs %+v", id, s1, s2)
		}
	}
	b1, _, _ := w1.MeasureBandwidth(3, 33)
	b2, _, _ := w2.MeasureBandwidth(3, 33)
	if b1 != b2 {
		t.Fatalf("bandwidth diverged: %g vs %g", b1, b2)
	}
}

func TestTwoJobsInterfere(t *testing.T) {
	w := testWorld(t, 11)
	// Job A alone on nodes 0,1.
	shape := func() *mpisim.Shape {
		s := &mpisim.Shape{Name: "j", Ranks: 8, Iterations: 2000, ComputeSecPerIter: 0.002, RefFreqGHz: 4.6}
		mpisim.Halo3D(s, 500e3, 2)
		return s
	}
	placeA, _ := mpisim.NewPlacement(8, []int{0, 1}, 4)
	var aloneTime time.Duration
	idA, _ := w.LaunchJob(shape(), placeA, func(r mpisim.Result) { aloneTime = r.Elapsed })
	now := t0
	for running(w, idA) {
		now = now.Add(100 * time.Millisecond)
		w.StepTo(now)
	}
	// Same job again, but now with a competitor on the same nodes.
	placeB, _ := mpisim.NewPlacement(8, []int{0, 1}, 4)
	var contendedTime time.Duration
	idB, _ := w.LaunchJob(shape(), placeA, func(r mpisim.Result) { contendedTime = r.Elapsed })
	idC, _ := w.LaunchJob(shape(), placeB, nil)
	for running(w, idB) {
		now = now.Add(100 * time.Millisecond)
		w.StepTo(now)
	}
	_ = idC
	if contendedTime <= aloneTime {
		t.Fatalf("co-located jobs did not interfere: alone %v, contended %v", aloneTime, contendedTime)
	}
}

func TestNodeDownAbortsRunningJobs(t *testing.T) {
	w := testWorld(t, 12)
	place, _ := mpisim.NewPlacement(8, []int{0, 1}, 4)
	var result mpisim.Result
	fired := false
	id, err := w.LaunchJob(simpleShape(8, 1000000), place, func(r mpisim.Result) {
		result = r
		fired = true
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StepTo(t0.Add(time.Second))
	// Kill one of the job's nodes.
	w.SetNodeDown(1, true)
	if running(w, id) {
		t.Fatal("job survived its node dying")
	}
	if !fired {
		t.Fatal("completion callback never fired for aborted job")
	}
	if !result.Failed || result.FailureReason == "" {
		t.Fatalf("aborted job result %+v", result)
	}
	// Bystander jobs on other nodes are untouched.
	place2, _ := mpisim.NewPlacement(4, []int{5}, 4)
	id2, err := w.LaunchJob(simpleShape(4, 1000000), place2, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SetNodeDown(8, true)
	if !running(w, id2) {
		t.Fatal("bystander job aborted by unrelated node failure")
	}
}

// TestWorldSameSeedSameCompletions oversubscribes four nodes with 60
// concurrent jobs whose finish times interleave: every job's rate depends
// on which others are still running, so any dependence on the order jobs
// are visited in shows up as a different completion order or end time.
func TestWorldSameSeedSameCompletions(t *testing.T) {
	run := func() []mpisim.Result {
		w := testWorld(t, 21)
		for i := 0; i < 60; i++ {
			place, err := mpisim.NewPlacement(4, []int{i % 4, (i + 1) % 4}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.LaunchJob(simpleShape(4, 200+10*(i%7)), place, nil); err != nil {
				t.Fatal(err)
			}
		}
		now := t0
		for i := 0; i < 100000 && len(w.jobs) > 0; i++ {
			now = now.Add(250 * time.Millisecond)
			w.StepTo(now)
		}
		res := w.results
		if len(res) != 60 {
			t.Fatalf("%d of 60 jobs finished", len(res))
		}
		return res
	}
	want := run()
	for rep := 1; rep < 20; rep++ {
		got := run()
		for i := range want {
			if got[i].JobID != want[i].JobID || !got[i].End.Equal(want[i].End) {
				t.Fatalf("repeat %d, completion %d: job %d at %v, first run had job %d at %v",
					rep, i, got[i].JobID, got[i].End, want[i].JobID, want[i].End)
			}
		}
	}
}
