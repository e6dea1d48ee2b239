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
// json.Marshal writes for them. A Manager's daemons share one, and a
// daemon started on its own makes its own: ticks run on the runtime one
// at a time, so one buffer serves them all, and the records of one
// instant write its timestamp's text once. The store copies what it
// keeps, so a steady-state publish allocates nothing. Each put method
// hands what canon refuses, with its error, to putJSON; the record is
// boxed only on that path.
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

// putHeartbeat puts a heartbeat at at under key.
func (e *tickEncoder) putHeartbeat(st store.Store, key string, at time.Time) error {
	e.reset()
	if e.heartbeat(at); !e.OK {
		return putJSON(st, key, heartbeat{At: at})
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

// means writes key and series column c's three window means, c sampled
// at res steps per unit, as Float writes each mean k's float64(k)/res,
// but from k: Milli for thousandths, Int for whole units below 2^53
// (every integer up to 2^53 is a double), Float otherwise.
func (e *tickEncoder) means(key string, s *stats.Series, c int, res int64) {
	e.Raw(key)
	for w, key := range [...]string{`{"M1":`, `,"M5":`, `,"M15":`} {
		switch k := s.Mean(w, c); {
		case res == milli:
			e.Milli(key, k)
		case res == whole && -1<<53 < k && k < 1<<53:
			e.Int(key, k)
		default:
			e.Float(key, float64(k)/float64(res))
		}
	}
	e.Raw(`}`)
}

func (e *tickEncoder) heartbeat(at time.Time) {
	e.time(`{"at":`, at)
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
