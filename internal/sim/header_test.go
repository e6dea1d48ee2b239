package sim

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/loadgen"
)

// TestScenarioJSONMatchesMarshal holds the trace header's scenario to
// json.Marshal's bytes: capacity and policy configs after withDefaults,
// weights, a zone other than UTC, empty and nil lists, zero-valued Dists
// and empty names (which encoding/json still writes), a name and a float
// canon refuses, and a config with every omitempty member zero.
func TestScenarioJSONMatchesMarshal(t *testing.T) {
	weights := alloc.PaperWeights()
	weights.Users = 0.125
	bare := loadgen.Workload{Version: loadgen.WorkloadVersion, Cohorts: []loadgen.Cohort{{Jobs: 3, Hourly: []float64{}}}}
	cfgs := []ScenarioConfig{
		testConfig(100, EASY, 1).withDefaults(),
		testConfig(100, FIFO, 2),
		{Seed: math.MaxUint64, Nodes: 8, Workload: bare},
		{Nodes: 4, Workload: loadgen.Workload{Name: "no cohorts"}},
		{Nodes: 4, Workload: loadgen.Workload{Name: "empty", Cohorts: []loadgen.Cohort{}}},
		{Nodes: 4, Workload: loadgen.Workload{Name: "<needs escaping>"}},
		{Nodes: 4, Workload: loadgen.Workload{Cohorts: []loadgen.Cohort{{Name: "nan", Interarrival: loadgen.Dist{Mean: math.NaN()}}}}},
		{Nodes: 4, Start: time.Date(2021, 6, 1, 9, 30, 0, 1500, time.FixedZone("x", -(5*3600+1800))), AgingBound: -time.Second},
	}
	for _, pc := range []*PolicyConfig{{}, {Alpha: 0.3, Beta: 0.7, Starts: -1, Weights: &weights}, {ReserveTTLSec: 1.5}} {
		c := testConfig(50, EASY, 3)
		c.Policy = pc
		cfgs = append(cfgs, c, c.withDefaults())
	}
	for i, c := range cfgs[:3] {
		if _, ok := appendScenario(nil, &c); !ok {
			t.Errorf("config %d falls back to json.Marshal", i)
		}
	}
	for i, c := range cfgs {
		want, wantErr := json.Marshal(c)
		got, err := scenarioJSON(&c)
		if (err != nil) != (wantErr != nil) || string(got) != string(want) {
			t.Errorf("config %d:\n got %s (%v)\nwant %s (%v)", i, got, err, want, wantErr)
		}
	}
}
