package sim

import (
	"encoding/json"

	"nlarm/internal/canon"
	"nlarm/internal/loadgen"
)

// scenarioJSON is json.Marshal(cfg) without reflection, so a run leaves
// no encoder cache for ScenarioConfig's type graph behind for the life
// of the process; what canon refuses (a string that needs escaping, a
// NaN or infinite float) goes through json.Marshal, which keeps its
// error.
func scenarioJSON(cfg *ScenarioConfig) ([]byte, error) {
	if b, ok := appendScenario(nil, cfg); ok {
		return b, nil
	}
	return json.Marshal(cfg)
}

// appendScenario appends c's JSON to b: members in struct order,
// omitempty as encoding/json applies it (never to a struct).
func appendScenario(b []byte, c *ScenarioConfig) ([]byte, bool) {
	e := &canon.Encoder{B: b, OK: true}
	object(e, func() {
		e.Uint(`,"seed":`, c.Seed)
		e.Int(`,"nodes":`, int64(c.Nodes))
		e.Int(`,"cores_per_node":`, int64(c.CoresPerNode))
		e.Raw(`,"workload":`)
		appendWorkload(e, &c.Workload)
		if c.Discipline != "" {
			e.Str(`,"discipline":`, string(c.Discipline))
		}
		canon.Omit(`,"backfill_depth":`, int64(c.BackfillDepth), e.Int)
		canon.Omit(`,"aging_bound":`, int64(c.AgingBound), e.Int)
		e.Time(`,"start":`, c.Start)
		canon.Omit(`,"max_events":`, c.MaxEvents, e.Uint)
		if p := c.Policy; p != nil {
			e.Raw(`,"policy":`)
			object(e, func() {
				canon.Omit(`,"alpha":`, p.Alpha, e.Float)
				canon.Omit(`,"beta":`, p.Beta, e.Float)
				canon.Omit(`,"starts":`, int64(p.Starts), e.Int)
				canon.Omit(`,"racks":`, int64(p.Racks), e.Int)
				canon.Omit(`,"monitor_period_sec":`, p.MonitorPeriodSec, e.Float)
				canon.Omit(`,"reserve_ttl_sec":`, p.ReserveTTLSec, e.Float)
				if w := p.Weights; w != nil {
					e.Float(`,"weights":{"CPULoad":`, w.CPULoad)
					e.Float(`,"CPUUtil":`, w.CPUUtil)
					e.Float(`,"FlowRate":`, w.FlowRate)
					e.Float(`,"AvailMem":`, w.AvailMem)
					e.Float(`,"Cores":`, w.Cores)
					e.Float(`,"Freq":`, w.Freq)
					e.Float(`,"TotalMem":`, w.TotalMem)
					e.Float(`,"Users":`, w.Users)
					e.Float(`,"Latency":`, w.Latency)
					e.Float(`,"Bandwidth":`, w.Bandwidth)
					e.Raw(`}`)
				}
			})
		}
	})
	return e.B, e.OK
}

func appendWorkload(e *canon.Encoder, w *loadgen.Workload) {
	object(e, func() {
		e.Int(`,"version":`, int64(w.Version))
		if w.Name != "" {
			e.Str(`,"name":`, w.Name)
		}
		canon.AppendList(e, `,"cohorts":`, w.Cohorts, func(co *loadgen.Cohort) {
			object(e, func() {
				e.Str(`,"name":`, co.Name)
				canon.Omit(`,"clients":`, int64(co.Clients), e.Int)
				e.Int(`,"jobs":`, int64(co.Jobs))
				appendDist(e, `,"interarrival":`, &co.Interarrival)
				canon.Omit(`,"daily_jobs":`, co.DailyJobs, e.Float)
				if len(co.Hourly) > 0 {
					canon.AppendList(e, `,"hourly":`, co.Hourly, func(f *float64) { e.Float(``, *f) })
				}
				appendDist(e, `,"procs":`, &co.Procs)
				canon.Omit(`,"ppn":`, int64(co.PPN), e.Int)
				appendDist(e, `,"walltime":`, &co.Walltime)
				appendDist(e, `,"service":`, &co.Service)
				appendDist(e, `,"priority":`, &co.Priority)
			})
		})
	})
}

func appendDist(e *canon.Encoder, key string, d *loadgen.Dist) {
	e.Raw(key)
	object(e, func() {
		if d.Kind != "" {
			e.Str(`,"kind":`, d.Kind)
		}
		canon.Omit(`,"mean":`, d.Mean, e.Float)
		canon.Omit(`,"cv":`, d.CV, e.Float)
		canon.Omit(`,"min":`, d.Min, e.Float)
		canon.Omit(`,"max":`, d.Max, e.Float)
	})
}

// object writes an object whose members each begin with a comma, and
// drops the first one's.
func object(e *canon.Encoder, members func()) {
	at := len(e.B)
	e.Raw(`{`)
	members()
	if len(e.B) > at+1 {
		e.B = append(e.B[:at+1], e.B[at+2:]...)
	}
	e.Raw(`}`)
}
