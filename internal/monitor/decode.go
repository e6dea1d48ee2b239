package monitor

import (
	"encoding/json"
	"strconv"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/stats"
)

// tickDecoder reads back, without reflection, the canonical JSON of the
// records the broker and the central monitor read from the store: what
// tickEncoder writes for metrics.NodeAttrs, heartbeat and both matrices,
// and what json.Marshal writes for livehostsRecord. Canonical means the
// exact key literals in declared order, no whitespace, strings of ASCII
// without a control byte, a quote or a backslash, and numbers in the JSON
// grammar (integers without a fraction or an exponent). Anything else clears ok — whitespace, escapes,
// non-ASCII, reordered, duplicate, unknown or case-folded keys, null for a
// scalar, trailing bytes — because encoding/json gives each of those a
// meaning of its own, and unmarshalJSON then leaves the value, or the
// error, to json.Unmarshal.
type tickDecoder struct {
	b  []byte // input not yet consumed
	ok bool
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
func decodeRecord(b []byte, v any) bool {
	d := tickDecoder{b: b, ok: true}
	switch r := v.(type) {
	case *metrics.NodeAttrs:
		var a metrics.NodeAttrs
		d.nodeAttrs(&a)
		return commit(&d, r, a)
	case *heartbeat:
		var h heartbeat
		h.Name = d.str(`{"name":`)
		d.time(`,"at":`, &h.At)
		d.lit(`}`)
		return commit(&d, r, h)
	case *livehostsRecord:
		var rec livehostsRecord
		rec.Replica = d.int(`{"replica":`)
		d.time(`,"at":`, &rec.At)
		d.lit(`,"hosts":`)
		rec.Hosts = decodeList[int](&d)
		d.lit(`}`)
		return commit(&d, r, rec)
	case *[]metrics.PairLatency:
		return commit(&d, r, decodeList[metrics.PairLatency](&d))
	case *[]metrics.PairBandwidth:
		return commit(&d, r, decodeList[metrics.PairBandwidth](&d))
	}
	return false
}

// commit assigns *r = v once the whole input has decoded.
func commit[T any](d *tickDecoder, r *T, v T) bool {
	if !d.ok || len(d.b) > 0 {
		return false
	}
	*r = v
	return true
}

// decodeList reads a list the way json.Unmarshal fills a nil slice — null
// is a nil list, [] an empty one — decoding each element in place.
func decodeList[T int | metrics.PairLatency | metrics.PairBandwidth](d *tickDecoder) []T {
	if d.skip(`null`) {
		return nil
	}
	l := []T{}
	if d.lit(`[`); d.skip(`]`) {
		return l
	}
	for more := d.ok; more; more = d.skip(`,`) {
		var zero T
		l = append(l, zero)
		switch p := any(&l[len(l)-1]).(type) {
		case *int:
			*p = d.int(``)
		case *metrics.PairLatency:
			d.latency(p)
		case *metrics.PairBandwidth:
			d.bandwidth(p)
		}
	}
	d.lit(`]`)
	return l
}

func (d *tickDecoder) nodeAttrs(a *metrics.NodeAttrs) {
	a.NodeID = d.int(`{"node_id":`)
	a.Hostname = d.str(`,"hostname":`)
	d.time(`,"timestamp":`, &a.Timestamp)
	a.Cores = d.int(`,"cores":`)
	a.FreqGHz = d.float(`,"freq_ghz":`)
	a.TotalMemMB = d.float(`,"total_mem_mb":`)
	a.Users = d.int(`,"users":`)
	a.CPULoad = d.windowed(`,"cpu_load":`)
	a.CPUUtilPct = d.windowed(`,"cpu_util_pct":`)
	a.FlowRateBps = d.windowed(`,"flow_rate_bps":`)
	a.AvailMemMB = d.windowed(`,"avail_mem_mb":`)
	d.lit(`}`)
}

func (d *tickDecoder) windowed(key string) stats.Windowed {
	d.lit(key)
	var w stats.Windowed
	w.M1 = d.float(`{"M1":`)
	w.M5 = d.float(`,"M5":`)
	w.M15 = d.float(`,"M15":`)
	d.lit(`}`)
	return w
}

func (d *tickDecoder) latency(p *metrics.PairLatency) {
	p.U = d.int(`{"u":`)
	p.V = d.int(`,"v":`)
	d.time(`,"timestamp":`, &p.Timestamp)
	p.Last = time.Duration(d.integer(`,"last":`, 64))
	p.Mean1 = time.Duration(d.integer(`,"mean1":`, 64))
	p.Mean5 = time.Duration(d.integer(`,"mean5":`, 64))
	d.lit(`}`)
}

func (d *tickDecoder) bandwidth(p *metrics.PairBandwidth) {
	p.U = d.int(`{"u":`)
	p.V = d.int(`,"v":`)
	d.time(`,"timestamp":`, &p.Timestamp)
	p.AvailBps = d.float(`,"avail_bps":`)
	p.PeakBps = d.float(`,"peak_bps":`)
	d.lit(`}`)
}

// skip consumes s if the input starts with it.
func (d *tickDecoder) skip(s string) bool {
	if d.ok && len(d.b) >= len(s) && string(d.b[:len(s)]) == s {
		d.b = d.b[len(s):]
		return true
	}
	return false
}

// lit consumes s, or clears ok.
func (d *tickDecoder) lit(s string) bool {
	if !d.skip(s) {
		d.ok = false
	}
	return d.ok
}

// number consumes key and the number after it, and returns the number's
// text: -?(0|[1-9][0-9]*), then for a float an optional fraction and
// exponent. strconv parses more than JSON does (inf, 0x1p3, +1, 01), so
// the grammar is checked first; whatever ends the match must be the next
// literal.
func (d *tickDecoder) number(key string, float bool) []byte {
	if !d.lit(key) {
		return nil
	}
	b, i := d.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	ok := j > i && (b[i] != '0' || j == i+1)
	if i = j; ok && float && i < len(b) && b[i] == '.' {
		j = digits(b, i+1)
		ok, i = j > i+1, j
	}
	if ok && float && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = digits(b, i) // ParseFloat refuses an exponent without digits
	}
	if !ok {
		d.ok = false
		return nil
	}
	d.b = b[i:]
	return b[:i]
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer parses the way encoding/json fills an integer field of bitSize
// bits; a value out of range clears ok.
func (d *tickDecoder) integer(key string, bitSize int) int64 {
	n, err := strconv.ParseInt(string(d.number(key, false)), 10, bitSize)
	if err != nil {
		d.ok = false
	}
	return n
}

func (d *tickDecoder) int(key string) int { return int(d.integer(key, strconv.IntSize)) }

func (d *tickDecoder) float(key string) float64 {
	f, err := strconv.ParseFloat(string(d.number(key, true)), 64)
	if err != nil {
		d.ok = false
	}
	return f
}

// quoted consumes key and the string after it, and returns the string
// with its quotes.
func (d *tickDecoder) quoted(key string) []byte {
	if d.lit(key) && len(d.b) > 0 && d.b[0] == '"' {
		for i := 1; i < len(d.b); i++ {
			c := d.b[i]
			if c == '"' {
				q := d.b[:i+1]
				d.b = d.b[i+1:]
				return q
			}
			if c < 0x20 || c >= 0x80 || c == '\\' {
				break
			}
		}
	}
	d.ok = false
	return nil
}

func (d *tickDecoder) str(key string) string {
	if q := d.quoted(key); len(q) > 2 {
		return string(q[1 : len(q)-1])
	}
	return ""
}

// time decodes through (*time.Time).UnmarshalJSON, the method
// encoding/json calls, so the location and wall bits are the same.
func (d *tickDecoder) time(key string, t *time.Time) {
	if q := d.quoted(key); q == nil || t.UnmarshalJSON(q) != nil {
		d.ok = false
	}
}
