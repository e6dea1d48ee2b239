package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nlarm/internal/trace"
)

func policyTestConfig(jobs int, seed uint64, pc *PolicyConfig) ScenarioConfig {
	return ScenarioConfig{
		Seed:         seed,
		Nodes:        128,
		CoresPerNode: 8,
		Workload:     ScaledWorkload(jobs, 128, 0.65),
		Discipline:   EASY,
		Policy:       pc,
	}
}

// TestPolicyTimingMatchesCapacity pins the overlay contract: a policy
// run schedules every job at exactly the same instant as its capacity
// twin — placement decides *where*, never *when*. Submit, start, end,
// node count, and backfill flags must match record for record.
func TestPolicyTimingMatchesCapacity(t *testing.T) {
	capCfg := policyTestConfig(3000, 21, nil)
	polCfg := policyTestConfig(3000, 21, &PolicyConfig{})
	var capBuf, polBuf bytes.Buffer
	capRes, err := RunScenario(capCfg, &capBuf)
	if err != nil {
		t.Fatal(err)
	}
	polRes, err := RunScenario(polCfg, &polBuf)
	if err != nil {
		t.Fatal(err)
	}
	if capRes.Completed != polRes.Completed || capRes.Backfilled != polRes.Backfilled ||
		capRes.MeanWaitSec != polRes.MeanWaitSec || capRes.MakespanSec != polRes.MakespanSec {
		t.Fatalf("timing stats diverged:\ncapacity %+v\npolicy   %+v", capRes, polRes)
	}
	_, capRecs, _, err := trace.ReadJobTrace(bytes.NewReader(capBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, polRecs, _, err := trace.ReadJobTrace(bytes.NewReader(polBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(capRecs) != len(polRecs) {
		t.Fatalf("%d capacity records vs %d policy records", len(capRecs), len(polRecs))
	}
	for i := range capRecs {
		c, p := capRecs[i], polRecs[i]
		// The policy trace carries cost columns on top of identical
		// scheduling: blank them and the records must be equal.
		p.CLCost, p.NLCost = 0, 0
		if c != p {
			t.Fatalf("record %d diverged:\ncapacity %+v\npolicy   %+v", i, c, p)
		}
	}
}

// TestPolicyAccounting checks the placement layer's invariants on a
// full run: one model build ever, a decision per started job, costs on
// every completed record, and a version-2 trace header.
func TestPolicyAccounting(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunScenario(policyTestConfig(2000, 5, &PolicyConfig{}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Policy
	if st == nil {
		t.Fatal("policy run returned no policy stats")
	}
	if st.ModelBuilds != 1 {
		t.Fatalf("model built %d times, want exactly 1", st.ModelBuilds)
	}
	if st.Decisions != res.Completed {
		t.Fatalf("%d decisions for %d completed jobs", st.Decisions, res.Completed)
	}
	if st.ModelRefreshes == 0 {
		t.Fatal("model never refreshed over the whole run")
	}
	if st.ChargedDecisions == 0 {
		t.Fatal("no decision ever saw a charged model — reservations are not flowing")
	}
	if st.FallbackDecisions != 0 {
		t.Fatalf("%d decisions fell back to the uncharged model", st.FallbackDecisions)
	}
	if st.MeanCLCost <= 0 || st.MeanNLCost < 0 {
		t.Fatalf("degenerate mean costs: cl %g nl %g", st.MeanCLCost, st.MeanNLCost)
	}
	hdr, recs, _, err := trace.ReadJobTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != trace.JobTraceVersion {
		t.Fatalf("policy trace header version %d, want %d", hdr.Version, trace.JobTraceVersion)
	}
	for i, rec := range recs {
		if rec.StartSec < 0 {
			continue // rejected: never placed
		}
		if rec.CLCost <= 0 {
			t.Fatalf("completed record %d has no compute cost: %+v", i, rec)
		}
	}
}

// TestPolicyDeterminism runs the same policy config twice (and an
// exhaustive-sweep variant twice) expecting bit-identical traces.
func TestPolicyDeterminism(t *testing.T) {
	for _, pc := range []*PolicyConfig{
		{},
		{Starts: -1, Racks: 4},
	} {
		cfg := policyTestConfig(1200, 77, pc)
		r1, err := RunScenario(cfg, nil)
		if err != nil {
			t.Fatalf("%+v: %v", pc, err)
		}
		r2, err := RunScenario(cfg, nil)
		if err != nil {
			t.Fatalf("%+v: %v", pc, err)
		}
		if r1.Digest != r2.Digest {
			t.Fatalf("%+v: same-seed digests differ: %s vs %s", pc, r1.Digest, r2.Digest)
		}
		if *r1.Policy != *r2.Policy {
			t.Fatalf("%+v: same-seed policy stats differ: %+v vs %+v", pc, r1.Policy, r2.Policy)
		}
	}
}

// TestPolicyReplayFromHeader re-runs a policy scenario from the config
// embedded in its own trace header: the round trip must reproduce the
// digest, records included.
func TestPolicyReplayFromHeader(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunScenario(policyTestConfig(1000, 13, &PolicyConfig{Starts: 4}), &buf)
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
	if cfg.Policy == nil {
		t.Fatal("embedded scenario lost its policy config")
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

// policyDigestConfig is a ~2,000-job EASY run on 128 nodes whose batch
// cohort asks for one process per node, so its long tail overflows the
// cluster: the trace holds backfilled starts and rejections (-1 start
// and end, no cost columns) beside the placed jobs' cl_cost/nl_cost.
func policyDigestConfig(pc *PolicyConfig) ScenarioConfig {
	cfg := policyTestConfig(2000, 42, pc)
	cfg.Workload.Cohorts[0].PPN = 1
	return cfg
}

// TestPolicyTraceDigests pins the sha256 of two policy-fidelity traces,
// at the default 8 starts and at the exhaustive sweep. TestScenarioGolden
// pins only capacity records, which carry no cost columns; these pin the
// float bytes of cl_cost/nl_cost and the placement decisions behind them.
func TestPolicyTraceDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		pc   *PolicyConfig
		want string
	}{
		{"starts-8", &PolicyConfig{}, "e1f1cf8df8eb01d125f9e97ca1764a0c5e248c853865867524b85d0fdc76f430"},
		{"starts-all", &PolicyConfig{Starts: -1}, "787cf0da64410d246c2cf821013c984247e80dccd577a98398513a37fe9bfda3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunScenario(policyDigestConfig(tc.pc), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejected == 0 || res.Backfilled == 0 {
				t.Fatalf("want rejections and backfills, got %d rejected, %d backfilled", res.Rejected, res.Backfilled)
			}
			if res.Digest != tc.want {
				t.Fatalf("trace digest %s, want %s", res.Digest, tc.want)
			}
		})
	}
}
