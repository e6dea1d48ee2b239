package monitor

import (
	"encoding/json"
	"sync"

	"nlarm/internal/canon"
	"nlarm/internal/metrics"
	"nlarm/internal/stats"
)

// tickEncoder appends the JSON of the four records the daemons publish on
// every tick (metrics.NodeAttrs, heartbeat, the latency and bandwidth
// matrices) with canon's writers, byte for byte what json.Marshal writes
// for them. Whatever canon refuses, marshalJSON leaves, with its error, to
// json.Marshal.
type tickEncoder struct{ canon.Encoder }

var tickEncoders = sync.Pool{New: func() any { return new(tickEncoder) }}

// marshalJSON returns json.Marshal(v). The tick records are encoded into
// a pooled buffer and copied out at their exact length.
func marshalJSON(v any) ([]byte, error) {
	e := tickEncoders.Get().(*tickEncoder)
	var out []byte
	ok := e.encode(v)
	if ok {
		out = append([]byte(nil), e.B...)
	}
	tickEncoders.Put(e)
	if !ok {
		return json.Marshal(v)
	}
	return out, nil
}

// encode replaces e.B with v's JSON and reports whether it could.
func (e *tickEncoder) encode(v any) bool {
	e.B, e.OK = e.B[:0], true
	switch r := v.(type) {
	case metrics.NodeAttrs:
		e.nodeAttrs(&r)
	case heartbeat:
		e.Str(`{"name":`, r.Name)
		e.Time(`,"at":`, r.At)
		e.Raw(`}`)
	case []metrics.PairLatency:
		canon.AppendList(&e.Encoder, ``, r, e.latency)
	case []metrics.PairBandwidth:
		canon.AppendList(&e.Encoder, ``, r, e.bandwidth)
	default:
		return false
	}
	return e.OK
}

func (e *tickEncoder) nodeAttrs(a *metrics.NodeAttrs) {
	e.Int(`{"node_id":`, int64(a.NodeID))
	e.Str(`,"hostname":`, a.Hostname)
	e.Time(`,"timestamp":`, a.Timestamp)
	e.Int(`,"cores":`, int64(a.Cores))
	e.Float(`,"freq_ghz":`, a.FreqGHz)
	e.Float(`,"total_mem_mb":`, a.TotalMemMB)
	e.Int(`,"users":`, int64(a.Users))
	e.windowed(`,"cpu_load":`, a.CPULoad)
	e.windowed(`,"cpu_util_pct":`, a.CPUUtilPct)
	e.windowed(`,"flow_rate_bps":`, a.FlowRateBps)
	e.windowed(`,"avail_mem_mb":`, a.AvailMemMB)
	e.Raw(`}`)
}

func (e *tickEncoder) windowed(key string, w stats.Windowed) {
	e.Raw(key)
	e.Float(`{"M1":`, w.M1)
	e.Float(`,"M5":`, w.M5)
	e.Float(`,"M15":`, w.M15)
	e.Raw(`}`)
}

func (e *tickEncoder) latency(p *metrics.PairLatency) {
	e.Int(`{"u":`, int64(p.U))
	e.Int(`,"v":`, int64(p.V))
	e.Time(`,"timestamp":`, p.Timestamp)
	e.Int(`,"last":`, int64(p.Last))
	e.Int(`,"mean1":`, int64(p.Mean1))
	e.Int(`,"mean5":`, int64(p.Mean5))
	e.Raw(`}`)
}

func (e *tickEncoder) bandwidth(p *metrics.PairBandwidth) {
	e.Int(`{"u":`, int64(p.U))
	e.Int(`,"v":`, int64(p.V))
	e.Time(`,"timestamp":`, p.Timestamp)
	e.Float(`,"avail_bps":`, p.AvailBps)
	e.Float(`,"peak_bps":`, p.PeakBps)
	e.Raw(`}`)
}
