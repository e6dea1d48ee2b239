package monitor

import (
	"encoding/json"
	"fmt"
	"time"

	"nlarm/internal/canon"
	"nlarm/internal/metrics"
	"nlarm/internal/stats"
)

// tickDecoder reads back, with canon's readers, the canonical JSON of the
// records the broker and the central monitor read from the store: what
// tickEncoder writes for metrics.NodeAttrs, heartbeat and both matrices,
// and what json.Marshal writes for livehostsRecord. Whatever canon
// refuses, unmarshalJSON leaves, with its error, to json.Unmarshal.
type tickDecoder struct {
	canon.Decoder
	// atText is the last timestamp read, quoted, and at what it parsed
	// to: a sweep stamps most of its pairs with one instant.
	atText []byte
	at     time.Time
}

// time reads key and a timestamp as canon's Time does.
func (d *tickDecoder) time(key string, t *time.Time) {
	q := d.Quoted(key)
	switch {
	case q == nil:
		d.OK = false
	case string(q) == string(d.atText):
		*t = d.at
	case t.UnmarshalJSON(q) != nil:
		d.OK = false
	default:
		d.atText, d.at = q, *t
	}
}

// unmarshalJSON is json.Unmarshal(b, v). Every caller passes a pointer to a
// zero value (getJSON's callers each declare a fresh variable), which the
// fast path relies on: it replaces *v whole, where json.Unmarshal keeps
// what *v already held in any member the input lacks.
func unmarshalJSON(b []byte, v any) error {
	if decodeRecord(b, v) {
		return nil
	}
	return json.Unmarshal(b, v)
}

// decodeRecord decodes b into *v and reports whether it could; on false
// *v is untouched.
func decodeRecord(b []byte, v any) bool { return decodeSized(b, v, 0) }

// decodeSized is decodeRecord with a pair matrix's list sized for hint
// records.
func decodeSized(b []byte, v any, hint int) bool {
	d := tickDecoder{Decoder: canon.Decoder{B: b, OK: true}}
	switch r := v.(type) {
	case *metrics.NodeAttrs:
		var a metrics.NodeAttrs
		d.nodeAttrs(&a)
		return commit(&d, r, a)
	case *heartbeat:
		return d.heartbeat(r)
	case *livehostsRecord:
		var rec livehostsRecord
		rec.Replica = d.Int(`{"replica":`)
		d.time(`,"at":`, &rec.At)
		rec.Hosts = canon.ReadList(&d.Decoder, `,"hosts":`, 0, func(h *int) { *h = d.Int(``) })
		d.Lit(`}`)
		return commit(&d, r, rec)
	case *[]metrics.PairLatency:
		return commit(&d, r, canon.ReadList(&d.Decoder, ``, hint, d.latency))
	case *[]metrics.PairBandwidth:
		return commit(&d, r, canon.ReadList(&d.Decoder, ``, hint, d.bandwidth))
	}
	return false
}

// decodeMatrix decodes the pair matrix b published under key, its list
// sized for hint records, and returns it keyed by pair with its
// metrics.FoldPairs. It is a pure function of b.
func decodeMatrix[T metrics.PairRecord](key string, b []byte, hint int) (map[metrics.PairKey]T, uint64, error) {
	var list []T
	if !decodeSized(b, &list, hint) {
		if err := json.Unmarshal(b, &list); err != nil {
			return nil, 0, fmt.Errorf("monitor: unmarshal %s: %w", key, err)
		}
	}
	m := metrics.PairMap(list)
	return m, metrics.FoldPairs(m), nil
}

// commit assigns *r = v once the whole input has decoded.
func commit[T any](d *tickDecoder, r *T, v T) bool {
	if !d.Done() {
		return false
	}
	*r = v
	return true
}

// heartbeat decodes the whole input into *r and reports whether it
// could; on false *r is untouched.
func (d *tickDecoder) heartbeat(r *heartbeat) bool {
	var h heartbeat
	h.Name = d.Str(`{"name":`)
	d.time(`,"at":`, &h.At)
	d.Lit(`}`)
	return commit(d, r, h)
}

func (d *tickDecoder) nodeAttrs(a *metrics.NodeAttrs) {
	a.NodeID = d.Int(`{"node_id":`)
	a.Hostname = d.Str(`,"hostname":`)
	d.time(`,"timestamp":`, &a.Timestamp)
	a.Cores = d.Int(`,"cores":`)
	a.FreqGHz = d.Float(`,"freq_ghz":`)
	a.TotalMemMB = d.Float(`,"total_mem_mb":`)
	a.Users = d.Int(`,"users":`)
	a.CPULoad = d.windowed(`,"cpu_load":`)
	a.CPUUtilPct = d.windowed(`,"cpu_util_pct":`)
	a.FlowRateBps = d.windowed(`,"flow_rate_bps":`)
	a.AvailMemMB = d.windowed(`,"avail_mem_mb":`)
	d.Lit(`}`)
}

func (d *tickDecoder) windowed(key string) stats.Windowed {
	d.Lit(key)
	var w stats.Windowed
	w.M1 = d.Float(`{"M1":`)
	w.M5 = d.Float(`,"M5":`)
	w.M15 = d.Float(`,"M15":`)
	d.Lit(`}`)
	return w
}

func (d *tickDecoder) latency(p *metrics.PairLatency) {
	p.U = d.Int(`{"u":`)
	p.V = d.Int(`,"v":`)
	d.time(`,"timestamp":`, &p.Timestamp)
	p.Last = time.Duration(d.Int64(`,"last":`))
	p.Mean1 = time.Duration(d.Int64(`,"mean1":`))
	p.Mean5 = time.Duration(d.Int64(`,"mean5":`))
	d.Lit(`}`)
}

func (d *tickDecoder) bandwidth(p *metrics.PairBandwidth) {
	p.U = d.Int(`{"u":`)
	p.V = d.Int(`,"v":`)
	d.time(`,"timestamp":`, &p.Timestamp)
	p.AvailBps = d.Float(`,"avail_bps":`)
	p.PeakBps = d.Float(`,"peak_bps":`)
	d.Lit(`}`)
}
