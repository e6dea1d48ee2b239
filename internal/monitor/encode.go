package monitor

import (
	"slices"
	"time"

	"nlarm/internal/canon"
	"nlarm/internal/metrics"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

// tickEncoder appends the JSON of the records the daemons publish on
// every tick (metrics.NodeAttrs, heartbeat, livehostsRecord, the latency
// and bandwidth matrices) with canon's writers, byte for byte what
// json.Marshal writes for them. Each daemon owns one and reuses its
// buffer on every tick, which is safe because a daemon's ticks never
// overlap; the store copies what it keeps, so a steady-state publish
// allocates nothing. Each put method hands what canon refuses, with its
// error, to putJSON; the record is boxed only on that path.
type tickEncoder struct {
	canon.Encoder
	// at is the last timestamp written, atText its quoted text and atOK
	// whether canon took it. A tick stamps every record it publishes with
	// one instant, and a sweep most of its pairs, so the text is reused.
	// It sits in an array so that a copied encoder shares none of it.
	at     time.Time
	atText [48]byte
	atLen  int
	atOK   bool
}

// time writes key and t as canon's Time does. t == e.at compares the
// location too, so the same instant in another zone is written afresh.
func (e *tickEncoder) time(key string, t time.Time) {
	if e.atLen > 0 && t == e.at {
		e.Raw(key)
		e.B = append(e.B, e.atText[:e.atLen]...)
		e.OK = e.OK && e.atOK
		return
	}
	ok, n := e.OK, len(e.B)+len(key)
	e.OK = true
	e.Time(key, t)
	if text := e.B[n:]; len(text) <= len(e.atText) {
		e.at, e.atOK, e.atLen = t, e.OK, copy(e.atText[:], text)
	}
	e.OK = ok && e.OK
}

func (e *tickEncoder) reset() { e.B, e.OK = e.B[:0], true }

func (e *tickEncoder) putNodeAttrs(st store.Store, key string, a *metrics.NodeAttrs) error {
	e.reset()
	e.nodeAttrs(a)
	if !e.OK {
		return putJSON(st, key, *a)
	}
	return st.Put(key, e.B)
}

func (e *tickEncoder) putHeartbeat(st store.Store, key, name string, at time.Time) error {
	e.reset()
	e.heartbeat(name, at)
	if !e.OK {
		return putJSON(st, key, heartbeat{Name: name, At: at})
	}
	return st.Put(key, e.B)
}

func (e *tickEncoder) putLivehosts(st store.Store, key string, r *livehostsRecord) error {
	e.reset()
	e.livehosts(r)
	if !e.OK {
		return putJSON(st, key, *r)
	}
	return st.Put(key, e.B)
}

// putMatrix puts recs as one list, item writing each record, less the
// zero records of pairs never measured (key (0, 0), which is no pair).
func putMatrix[T metrics.PairRecord](e *tickEncoder, st store.Store, key string, recs []T, item func(*tickEncoder, *T)) error {
	var none metrics.PairKey
	e.reset()
	e.Raw(`[`)
	sep := ``
	for i := range recs {
		if recs[i].Key() != none {
			e.Raw(sep)
			item(e, &recs[i])
			sep = `,`
		}
	}
	if e.Raw(`]`); !e.OK {
		return putJSON(st, key, slices.DeleteFunc(slices.Clone(recs), func(r T) bool { return r.Key() == none }))
	}
	return st.Put(key, e.B)
}

func (e *tickEncoder) nodeAttrs(a *metrics.NodeAttrs) {
	e.Int(`{"node_id":`, int64(a.NodeID))
	e.Str(`,"hostname":`, a.Hostname)
	e.time(`,"timestamp":`, a.Timestamp)
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

func (e *tickEncoder) heartbeat(name string, at time.Time) {
	e.Str(`{"name":`, name)
	e.time(`,"at":`, at)
	e.Raw(`}`)
}

func (e *tickEncoder) livehosts(r *livehostsRecord) {
	e.Int(`{"replica":`, int64(r.Replica))
	e.time(`,"at":`, r.At)
	canon.AppendList(&e.Encoder, `,"hosts":`, r.Hosts, func(h *int) { e.Int(``, int64(*h)) })
	e.Raw(`}`)
}

func (e *tickEncoder) latency(p *metrics.PairLatency) {
	e.Int(`{"u":`, int64(p.U))
	e.Int(`,"v":`, int64(p.V))
	e.time(`,"timestamp":`, p.Timestamp)
	e.Int(`,"last":`, int64(p.Last))
	e.Int(`,"mean1":`, int64(p.Mean1))
	e.Int(`,"mean5":`, int64(p.Mean5))
	e.Raw(`}`)
}

func (e *tickEncoder) bandwidth(p *metrics.PairBandwidth) {
	e.Int(`{"u":`, int64(p.U))
	e.Int(`,"v":`, int64(p.V))
	e.time(`,"timestamp":`, p.Timestamp)
	e.Float(`,"avail_bps":`, p.AvailBps)
	e.Float(`,"peak_bps":`, p.PeakBps)
	e.Raw(`}`)
}
