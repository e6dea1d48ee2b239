package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"nlarm/internal/loadgen"
	"nlarm/internal/trace"
)

var updateSim = flag.Bool("update", false, "rewrite sim golden files")

// testWorkload is a small congested mix for scenario tests: enough
// competing cohorts that FIFO blocks and backfill has holes to fill.
func testWorkload(jobs int) loadgen.Workload {
	return ScaledWorkload(jobs, 64, 0.8)
}

func testConfig(jobs int, d Discipline, seed uint64) ScenarioConfig {
	return ScenarioConfig{
		Seed:         seed,
		Nodes:        64,
		CoresPerNode: 8,
		Workload:     testWorkload(jobs),
		Discipline:   d,
	}
}

func TestScenarioAccounting(t *testing.T) {
	res, err := RunScenario(testConfig(1000, EASY, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != res.Jobs {
		t.Fatalf("completed %d + rejected %d != jobs %d", res.Completed, res.Rejected, res.Jobs)
	}
	if res.Completed == 0 {
		t.Fatalf("no jobs completed")
	}
	if res.MeanWaitSec < 0 || res.MaxWaitSec < res.MeanWaitSec {
		t.Fatalf("wait stats inconsistent: mean %.2f max %.2f", res.MeanWaitSec, res.MaxWaitSec)
	}
	if res.UtilizationPct <= 0 || res.UtilizationPct > 100 {
		t.Fatalf("utilization %.2f%% out of range", res.UtilizationPct)
	}
	if res.MakespanSec <= 0 {
		t.Fatalf("non-positive makespan %.2f", res.MakespanSec)
	}
	if res.Digest == "" {
		t.Fatalf("empty digest")
	}
}

func TestScenarioTraceInvariants(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunScenario(testConfig(1000, EASY, 12), &buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, digest, err := trace.ReadJobTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if digest != res.Digest {
		t.Fatalf("reader digest %s != writer digest %s", digest, res.Digest)
	}
	if hdr.Seed != 12 {
		t.Fatalf("header seed %d, want 12", hdr.Seed)
	}
	if len(recs) != res.Jobs {
		t.Fatalf("%d trace records for %d jobs", len(recs), res.Jobs)
	}
	backfilled := 0
	for i, r := range recs {
		if r.StartSec < 0 {
			if r.EndSec >= 0 {
				t.Fatalf("record %d: rejected job with EndSec %.2f", i, r.EndSec)
			}
			continue
		}
		if r.StartSec < r.SubmitSec {
			t.Fatalf("record %d: started %.3f before submit %.3f", i, r.StartSec, r.SubmitSec)
		}
		if r.EndSec < r.StartSec {
			t.Fatalf("record %d: ended %.3f before start %.3f", i, r.EndSec, r.StartSec)
		}
		if r.Nodes <= 0 || r.Nodes > 64 {
			t.Fatalf("record %d: %d nodes on a 64-node cluster", i, r.Nodes)
		}
		if r.Backfilled {
			backfilled++
		}
	}
	if backfilled != res.Backfilled {
		t.Fatalf("trace has %d backfilled jobs, result says %d", backfilled, res.Backfilled)
	}
	// Records are written in completion order.
	for i := 1; i < len(recs); i++ {
		if recs[i].EndSec >= 0 && recs[i-1].EndSec >= 0 && recs[i].EndSec < recs[i-1].EndSec {
			t.Fatalf("record %d completes at %.3f before record %d at %.3f", i, recs[i].EndSec, i-1, recs[i-1].EndSec)
		}
	}
}

func TestScenarioBackfillImprovesWaits(t *testing.T) {
	fifo, err := RunScenario(testConfig(2000, FIFO, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	easy, err := RunScenario(testConfig(2000, EASY, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if easy.Backfilled == 0 {
		t.Fatalf("EASY run backfilled nothing on a congested cluster")
	}
	if easy.MeanWaitSec > fifo.MeanWaitSec {
		t.Fatalf("EASY mean wait %.1fs worse than FIFO %.1fs", easy.MeanWaitSec, fifo.MeanWaitSec)
	}
}

// TestScenarioRunHeapDrains checks that the run heap holds exactly the
// running jobs, so both disciplines end a run with it empty. FIFO never
// reads the heap, so an entry left for a later pop to discard would
// stay there for good.
func TestScenarioRunHeapDrains(t *testing.T) {
	for _, d := range []Discipline{FIFO, EASY} {
		rs := &runScratch{}
		res, err := runScenario(testConfig(2000, d, 3), nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.runs) != 0 {
			t.Fatalf("%s: %d run-heap entries left after %d jobs completed", d, len(rs.runs), res.Completed)
		}
	}
}

// TestScenarioDeterminism runs the same seeded 100k-job scenario twice
// and requires bit-identical trace digests — the property the CI
// sim-determinism job pins down (two separate processes there).
func TestScenarioDeterminism(t *testing.T) {
	jobs := 100_000
	if testing.Short() {
		jobs = 5_000
	}
	cfg := ScenarioConfig{
		Seed:         99,
		Nodes:        256,
		CoresPerNode: 8,
		Workload:     ScaledWorkload(jobs, 256, 0.7),
		Discipline:   EASY,
	}
	r1, err := RunScenario(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("same-seed digests differ:\nrun 1: %s\nrun 2: %s", r1.Digest, r2.Digest)
	}
	if r1.EventsFired != r2.EventsFired || r1.MeanWaitSec != r2.MeanWaitSec {
		t.Fatalf("same-seed stats differ: %+v vs %+v", r1, r2)
	}
	other := cfg
	other.Seed = 100
	r3, err := RunScenario(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Digest == r1.Digest {
		t.Fatalf("different seeds produced the same digest %s", r1.Digest)
	}
}

// TestScenarioGolden pins the full trace bytes of a 1k-job scenario to a
// checked-in golden file. Run with -update to regenerate after an
// intentional scheduling or format change.
func TestScenarioGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunScenario(testConfig(1000, EASY, 2026), &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "scenario_1k_easy.trace")
	if *updateSim {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/sim -run Golden -update` to create): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	// Diff decision-by-decision for a readable failure.
	_, gotRecs, _, err := trace.ReadJobTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, wantRecs, _, err := trace.ReadJobTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	diffs := trace.DiffJobRecords(gotRecs, wantRecs, 5)
	if len(diffs) == 0 {
		diffs = []string{"records equal but raw bytes differ (header or encoding change)"}
	}
	t.Fatalf("trace deviates from golden file (rerun with -update if intended):\n  %s", strings.Join(diffs, "\n  "))
}

// tieConfig is a 16-node scenario at ~95 % load on a 30-second grid:
// every cohort's interarrival, service and walltime is constant, so
// arrivals land on the same instants as each other and as finishes, and
// a backfill candidate's walltime can end exactly at the head's
// reservation.
func tieConfig(d Discipline, pc *PolicyConfig) ScenarioConfig {
	cohort := func(name string, clients, jobs int, gap, procs, service, prio float64) loadgen.Cohort {
		return loadgen.Cohort{
			Name: name, Clients: clients, Jobs: jobs,
			Interarrival: loadgen.Dist{Kind: "constant", Mean: gap},
			Procs:        loadgen.Dist{Kind: "constant", Mean: procs},
			PPN:          4,
			Walltime:     loadgen.Dist{Kind: "constant", Mean: service},
			Service:      loadgen.Dist{Kind: "constant", Mean: service},
			Priority:     loadgen.Dist{Kind: "constant", Mean: prio},
		}
	}
	return ScenarioConfig{
		Seed: 4, Nodes: 16, CoresPerNode: 4, Discipline: d, Policy: pc,
		Workload: loadgen.Workload{
			Version: loadgen.WorkloadVersion,
			Name:    "ties",
			Cohorts: []loadgen.Cohort{
				cohort("wide", 1, 80, 300, 48, 240, 0),
				cohort("narrow", 3, 600, 120, 8, 90, 0),
				cohort("urgent", 1, 160, 150, 16, 60, 1),
			},
		},
	}
}

// TestScenarioTieOrderDigests pins the trace digests of scenarios whose
// arrivals and finishes share instants: same-instant events fire in the
// order they were scheduled, and these digests are the reference for
// that order (the random-time goldens almost never tie).
func TestScenarioTieOrderDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ScenarioConfig
		want string
	}{
		{"fifo", tieConfig(FIFO, nil), "bf91df795c6298a3ba30c259674cd8158cd5373c9f3e25f6c73b27b7c4569483"},
		{"easy", tieConfig(EASY, nil), "4b1d55bd37c0cd03946d3172ee7079a30624d4c89877b4834d040a981e1f86c5"},
		{"easy-policy", tieConfig(EASY, &PolicyConfig{}), "59f897f76d1a4108938c00a623ad1c480e6955c8b9f80c7d40a624ade2de186f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			res, err := RunScenario(tc.cfg, &buf)
			if err != nil {
				t.Fatal(err)
			}
			_, recs, _, err := trace.ReadJobTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			ends := make(map[float64]bool)
			for _, r := range recs {
				ends[r.EndSec] = true
			}
			ties := 0
			for _, r := range recs {
				if ends[r.SubmitSec] {
					ties++
				}
			}
			if ties < 100 {
				t.Fatalf("only %d submits share an instant with a finish", ties)
			}
			if tc.cfg.Discipline == EASY && res.Backfilled == 0 {
				t.Fatalf("EASY run backfilled nothing")
			}
			if res.Digest != tc.want {
				t.Fatalf("trace digest %s, want %s", res.Digest, tc.want)
			}
		})
	}
}

// TestScenarioReplayFromHeader re-runs a scenario from nothing but its
// recorded trace header and checks every decision matches — the
// contract nlarm-replay -trace relies on.
func TestScenarioReplayFromHeader(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunScenario(testConfig(1500, EASY, 777), &buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, _, err := trace.ReadJobTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var cfg ScenarioConfig
	if err := json.Unmarshal(hdr.Scenario, &cfg); err != nil {
		t.Fatalf("unmarshal embedded scenario: %v", err)
	}
	var buf2 bytes.Buffer
	res2, err := RunScenario(cfg, &buf2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Fatalf("replay digest %s != recorded %s", res2.Digest, res.Digest)
	}
	_, recs2, _, err := trace.ReadJobTrace(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := trace.DiffJobRecords(recs, recs2, 5); len(diffs) != 0 {
		t.Fatalf("replay diverged:\n  %s", strings.Join(diffs, "\n  "))
	}
}

func TestScenarioRejectsOversizedJobs(t *testing.T) {
	w := loadgen.Workload{
		Version: loadgen.WorkloadVersion,
		Name:    "oversized",
		Cohorts: []loadgen.Cohort{{
			Name: "huge", Clients: 1, Jobs: 5,
			Interarrival: loadgen.Dist{Kind: "constant", Mean: 60},
			Procs:        loadgen.Dist{Kind: "constant", Mean: 4096},
			PPN:          8,
			Service:      loadgen.Dist{Kind: "constant", Mean: 60},
			Walltime:     loadgen.Dist{Kind: "constant", Mean: 120},
		}},
	}
	res, err := RunScenario(ScenarioConfig{Seed: 1, Nodes: 16, CoresPerNode: 8, Workload: w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 5 || res.Completed != 0 {
		t.Fatalf("want 5 rejected / 0 completed, got %d / %d", res.Rejected, res.Completed)
	}
}

// TestScenarioServicePastDurationRange runs jobs whose service exceeds
// time.Duration's ~292 years, one after another on one node: they end
// at the last instant a trace can hold instead of wrapping into the
// past, and the trace keeps the bytes it had with time.Time instants.
func TestScenarioServicePastDurationRange(t *testing.T) {
	w := loadgen.Workload{
		Version: loadgen.WorkloadVersion,
		Name:    "forever",
		Cohorts: []loadgen.Cohort{{
			Name: "forever", Clients: 1, Jobs: 3,
			Interarrival: loadgen.Dist{Kind: "constant", Mean: 60},
			Procs:        loadgen.Dist{Kind: "constant", Mean: 8},
			PPN:          8,
			Service:      loadgen.Dist{Kind: "constant", Mean: 1e12},
		}},
	}
	res, err := RunScenario(ScenarioConfig{Seed: 1, Nodes: 1, CoresPerNode: 8, Workload: w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "2f452fdb4818bd4ab885303e780a37b70db631627dead3de5433c95bc3451fa8"; res.Completed != 3 || res.Digest != want {
		t.Fatalf("%d completed, digest %s; want 3 and %s", res.Completed, res.Digest, want)
	}
}

func TestScenarioMaxEventsGuard(t *testing.T) {
	cfg := testConfig(500, FIFO, 3)
	cfg.MaxEvents = 10
	if _, err := RunScenario(cfg, nil); err == nil {
		t.Fatalf("MaxEvents guard did not trip")
	}
}

// failAfter accepts n bytes, then fails every write with err.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestScenarioJoinsPipeline leaves RunScenario four ways — success,
// MaxEvents exceeded, a bad PolicyConfig, a trace writer that fails
// part-way — each with more arrivals and records than the batch rings
// hold, and requires the goroutine count back at its baseline after
// every one, and a failing writer's own error returned.
func TestScenarioJoinsPipeline(t *testing.T) {
	errSink := errors.New("trace sink full")
	const jobs = 3000 // about 3 rings' worth of arrivals and of records
	ok := testConfig(jobs, EASY, 5)
	capped := ok
	capped.MaxEvents = jobs
	badPolicy := ok
	badPolicy.Policy = &PolicyConfig{Alpha: -1, Beta: 2}
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name string
		cfg  ScenarioConfig
		out  io.Writer
		want func(error) bool
	}{
		{"success", ok, nil, func(err error) bool { return err == nil }},
		{"max events", capped, nil, func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeded") }},
		{"bad policy", badPolicy, nil, func(err error) bool { return err != nil && strings.Contains(err.Error(), "α/β") }},
		{"failing writer", ok, &failAfter{n: 100_000, err: errSink}, func(err error) bool { return errors.Is(err, errSink) }},
	} {
		_, err := RunScenario(c.cfg, c.out)
		if !c.want(err) {
			t.Errorf("%s: RunScenario error %v", c.name, err)
		}
		// The stages are joined; give their goroutines a moment to exit.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the run, %d before", c.name, n, base)
		}
	}
}

// TestScenarioPastEventRejected pins the strictness of the scenario's
// queue: an arrival or a finish before the current instant is
// ErrPastEvent and queues nothing, while exactly now is allowed and
// fires at now.
func TestScenarioPastEventRejected(t *testing.T) {
	now := int64(time.Minute)
	drained := make(chan []loadgen.Arrival)
	close(drained) // the producer has no more arrivals
	s := &scenario{
		cfg: ScenarioConfig{Nodes: 4, CoresPerNode: 4, Start: scenarioEpoch},
		rs:  &runScratch{}, cohorts: make(map[string]*cohortAcc), now: now,
	}
	s.arrivals.full = drained
	// 64 processes never fit 4 nodes: the arrival is rejected, and
	// starts no job.
	past := loadgen.Arrival{At: scenarioEpoch.Add(time.Duration(now - 1)), Procs: 64, PPN: 4}
	s.nextArr = past
	if err := s.queue(now-1, nil); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("queue(past arrival) error = %v, want ErrPastEvent", err)
	}
	if err := s.queue(now-1, &simJob{id: 1, nodes: 1, end: now - 1}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("queue(past finish) error = %v, want ErrPastEvent", err)
	}
	if s.armed || len(s.rs.runs) != 0 || s.step() {
		t.Fatalf("a rejected event was queued (armed %v, %d finishes)", s.armed, len(s.rs.runs))
	}
	s.nextArr.At = s.instant(now)
	if err := s.queue(now, nil); err != nil {
		t.Fatalf("queue(arrival at now): %v", err)
	}
	if err := s.queue(now, &simJob{id: 2, nodes: 1, end: now}); err != nil {
		t.Fatalf("queue(finish at now): %v", err)
	}
	// Both fire at now, the arrival first, as it was queued first.
	if !s.step() || s.armed || len(s.rs.runs) != 1 || s.now != now {
		t.Fatalf("the arrival at now did not fire first (armed %v, %d finishes, now %d)", s.armed, len(s.rs.runs), s.now)
	}
	if !s.step() || len(s.rs.runs) != 0 || s.now != now {
		t.Fatalf("the finish at now did not fire (%d finishes, now %d)", len(s.rs.runs), s.now)
	}
	if s.res.Rejected != 1 || s.res.Completed != 1 {
		t.Fatalf("%d rejected, %d completed; want the oversized arrival rejected and the job completed", s.res.Rejected, s.res.Completed)
	}
	if s.step() {
		t.Fatalf("an event fired after the queue drained")
	}
}

// TestMillionJobConfigShape checks the acceptance scenario's shape (one
// million jobs on 1024 nodes under EASY, the -run sim default).
func TestMillionJobConfigShape(t *testing.T) {
	cfg := ScenarioConfig{Seed: 1, Nodes: 1024, CoresPerNode: 8,
		Workload: ScaledWorkload(1_000_000, 1024, 0.65), Discipline: EASY}
	if got := cfg.Workload.TotalJobs(); got != 1_000_000 {
		t.Fatalf("million-job workload totals %d jobs, want 1000000", got)
	}
	if err := cfg.Workload.Validate(); err != nil {
		t.Fatalf("million-job workload invalid: %v", err)
	}
	if cfg.withDefaults().BackfillDepth != 32 {
		t.Fatalf("default backfill depth = %d, want 32", cfg.withDefaults().BackfillDepth)
	}
}
