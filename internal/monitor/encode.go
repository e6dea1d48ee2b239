package monitor

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/stats"
)

// tickEncoder appends the JSON of the four records the daemons publish on
// every tick (metrics.NodeAttrs, heartbeat, the latency and bandwidth
// matrices) without reflection, byte for byte what json.Marshal writes for
// them: fields in declared order, omitempty forecasts, encoding/json's
// float formatting, RFC 3339 times. ok turns false on anything it does not
// reproduce — NaN or ±Inf, a year outside 0–9999, a zone hour past 23, a
// string that needs escaping — and marshalJSON then leaves the bytes, or
// the error, to json.Marshal.
type tickEncoder struct {
	b  []byte
	ok bool
}

var tickEncoders = sync.Pool{New: func() any { return new(tickEncoder) }}

// marshalJSON returns json.Marshal(v). The tick records are encoded into
// a pooled buffer and copied out at their exact length.
func marshalJSON(v any) ([]byte, error) {
	e := tickEncoders.Get().(*tickEncoder)
	var out []byte
	ok := e.encode(v)
	if ok {
		out = append([]byte(nil), e.b...)
	}
	tickEncoders.Put(e)
	if !ok {
		return json.Marshal(v)
	}
	return out, nil
}

// encode replaces e.b with v's JSON and reports whether it could. Each
// writer below takes the literal that precedes its value: the key, with
// the brace or comma before it.
func (e *tickEncoder) encode(v any) bool {
	e.b, e.ok = e.b[:0], true
	switch r := v.(type) {
	case metrics.NodeAttrs:
		e.nodeAttrs(&r)
	case heartbeat:
		e.str(`{"name":`, r.Name)
		e.time(`,"at":`, r.At)
		e.raw(`}`)
	case []metrics.PairLatency:
		appendList(e, r, (*tickEncoder).latency)
	case []metrics.PairBandwidth:
		appendList(e, r, (*tickEncoder).bandwidth)
	default:
		return false
	}
	return e.ok
}

func (e *tickEncoder) nodeAttrs(a *metrics.NodeAttrs) {
	e.int(`{"node_id":`, int64(a.NodeID))
	e.str(`,"hostname":`, a.Hostname)
	e.time(`,"timestamp":`, a.Timestamp)
	e.int(`,"cores":`, int64(a.Cores))
	e.float(`,"freq_ghz":`, a.FreqGHz)
	e.float(`,"total_mem_mb":`, a.TotalMemMB)
	e.int(`,"users":`, int64(a.Users))
	e.windowed(`,"cpu_load":`, a.CPULoad)
	e.windowed(`,"cpu_util_pct":`, a.CPUUtilPct)
	e.windowed(`,"flow_rate_bps":`, a.FlowRateBps)
	e.windowed(`,"avail_mem_mb":`, a.AvailMemMB)
	e.forecast(`,"cpu_load_forecast":`, a.CPULoadForecast)
	e.forecast(`,"flow_rate_forecast":`, a.FlowRateForecast)
	e.raw(`}`)
}

func (e *tickEncoder) windowed(key string, w stats.Windowed) {
	e.raw(key)
	e.float(`{"M1":`, w.M1)
	e.float(`,"M5":`, w.M5)
	e.float(`,"M15":`, w.M15)
	e.raw(`}`)
}

// forecast writes nothing for a nil forecast (omitempty).
func (e *tickEncoder) forecast(key string, f *metrics.Forecast) {
	if f == nil {
		return
	}
	e.raw(key)
	e.float(`{"value":`, f.Value)
	e.str(`,"method":`, f.Method)
	e.raw(`}`)
}

func (e *tickEncoder) latency(p *metrics.PairLatency) {
	e.int(`{"u":`, int64(p.U))
	e.int(`,"v":`, int64(p.V))
	e.time(`,"timestamp":`, p.Timestamp)
	e.int(`,"last":`, int64(p.Last))
	e.int(`,"mean1":`, int64(p.Mean1))
	e.int(`,"mean5":`, int64(p.Mean5))
	e.raw(`}`)
}

func (e *tickEncoder) bandwidth(p *metrics.PairBandwidth) {
	e.int(`{"u":`, int64(p.U))
	e.int(`,"v":`, int64(p.V))
	e.time(`,"timestamp":`, p.Timestamp)
	e.float(`,"avail_bps":`, p.AvailBps)
	e.float(`,"peak_bps":`, p.PeakBps)
	e.raw(`}`)
}

// appendList writes a slice the way json.Marshal does: null when nil.
func appendList[T any](e *tickEncoder, list []T, item func(*tickEncoder, *T)) {
	if list == nil {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i := range list {
		if i > 0 {
			e.raw(`,`)
		}
		item(e, &list[i])
	}
	e.raw(`]`)
}

func (e *tickEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *tickEncoder) int(key string, v int64) { e.b = strconv.AppendInt(append(e.b, key...), v, 10) }

// float follows encoding/json: %f between 1e-6 and 1e21, %e outside it
// with the exponent's leading zero dropped (e-07 becomes e-7).
func (e *tickEncoder) float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str writes s quoted when it needs no escaping under json.Marshal's
// rules (printable ASCII other than the quote, the backslash and the HTML
// characters <, > and &).
func (e *tickEncoder) str(key, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
			return
		}
	}
	e.b = append(append(append(e.b, key...), '"'), s...)
	e.b = append(e.b, '"')
}

// time writes t as Time.MarshalJSON does, which refuses a year that is not
// four digits wide and a zone offset of a day or more.
func (e *tickEncoder) time(key string, t time.Time) {
	if y := t.Year(); y < 0 || y > 9999 {
		e.ok = false
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		e.ok = false
	}
	e.b = t.AppendFormat(append(append(e.b, key...), '"'), time.RFC3339Nano)
	e.b = append(e.b, '"')
}
