package monitor

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"nlarm/internal/canon"
	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

// tickGen draws the tick records with the inputs json.Marshal treats
// specially mixed in among ordinary ones.
type tickGen struct{ r *rng.Rand }

func (g tickGen) float() float64 {
	switch g.r.Intn(12) {
	case 0:
		return [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
			math.SmallestNonzeroFloat64, math.MaxFloat64}[g.r.Intn(11)]
	case 1:
		return g.r.NormMS(0, 1) * 1e-9 // tiny: %e with a two-digit exponent
	case 2:
		return g.r.NormMS(0, 1) * 1e25 // huge
	default:
		return g.r.NormMS(0, 1) * math.Pow(10, float64(g.r.Intn(16)-4))
	}
}

func (g tickGen) str() string {
	if g.r.Intn(3) > 0 {
		return []string{"csews1", "csews60", "median-20", "exp-0.2", "ar1", "nodestated/7", ""}[g.r.Intn(7)]
	}
	parts := []string{"a", "Z", "0", "-", "/", " ", "<", ">", "&", `"`, `\`, "\n", "\x7f", "é", "\u2028", "\xff", "ü"}
	var b []byte
	for n := g.r.Intn(8); n > 0; n-- {
		b = append(b, parts[g.r.Intn(len(parts))]...)
	}
	return string(b)
}

func (g tickGen) time() time.Time {
	zones := []*time.Location{time.UTC, time.FixedZone("IST", 5*3600+1800),
		time.FixedZone("", -(3*3600 + 15*60)), time.FixedZone("odd", 7), time.FixedZone("day", 24*3600),
		time.FixedZone("-day", -24*3600), time.FixedZone("late", 24*3600-60)}
	year := 2020
	if g.r.Intn(10) == 0 {
		year = []int{0, 9999, -1, 10000, 1}[g.r.Intn(5)]
	}
	t := time.Date(year, time.Month(1+g.r.Intn(12)), 1+g.r.Intn(28), g.r.Intn(24), g.r.Intn(60), g.r.Intn(60),
		[]int{0, 500_000_000, g.r.Intn(1e9)}[g.r.Intn(3)], time.UTC)
	return t.In(zones[g.r.Intn(len(zones))])
}

func (g tickGen) windowed() stats.Windowed {
	return stats.Windowed{M1: g.float(), M5: g.float(), M15: g.float()}
}

func (g tickGen) record() any {
	n := g.r.Intn(4)
	switch g.r.Intn(4) {
	case 0:
		return metrics.NodeAttrs{
			NodeID: g.r.Intn(1 << 20), Hostname: g.str(), Timestamp: g.time(),
			Cores: g.r.Intn(64), FreqGHz: g.float(), TotalMemMB: g.float(), Users: g.r.Intn(9) - 1,
			CPULoad: g.windowed(), CPUUtilPct: g.windowed(), FlowRateBps: g.windowed(), AvailMemMB: g.windowed(),
		}
	case 1:
		return heartbeat{At: g.time()}
	case 2:
		if n == 0 && g.r.Intn(2) == 0 {
			return []metrics.PairLatency(nil)
		}
		out := make([]metrics.PairLatency, n)
		for i := range out {
			out[i] = metrics.PairLatency{U: g.r.Intn(60), V: g.r.Intn(60) - 1, Timestamp: g.time(),
				Last: time.Duration(g.r.Uint64()), Mean1: time.Duration(g.r.Uint64() >> g.r.Intn(64)), Mean5: -time.Duration(g.r.Intn(9))}
		}
		return out
	default:
		if n == 0 && g.r.Intn(2) == 0 {
			return []metrics.PairBandwidth(nil)
		}
		out := make([]metrics.PairBandwidth, n)
		for i := range out {
			out[i] = metrics.PairBandwidth{U: g.r.Intn(60), V: g.r.Intn(60), Timestamp: g.time(),
				AvailBps: g.float(), PeakBps: g.float()}
		}
		return out
	}
}

// Property: marshalJSON writes exactly json.Marshal's bytes, and fails
// exactly when it fails, for random tick records — HTML characters,
// non-ASCII and invalid UTF-8 strings, tiny/huge/NaN/±Inf floats, years
// and zones Time.MarshalJSON refuses, nil and empty matrices — and takes
// the reflection-free path for most of them.
func TestMarshalMatchesJSON(t *testing.T) {
	g := tickGen{rng.New(27)}
	fast := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		v := g.record()
		got, gotErr := marshalJSON(v)
		want, wantErr := json.Marshal(v)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%#v:\n got %s (err %v)\nwant %s (err %v)", v, got, gotErr, want, wantErr)
		}
		if new(tickEncoder).encode(v) {
			fast++
		}
	}
	if fast < trials/4 {
		t.Fatalf("only %d of %d records took the appender", fast, trials)
	}
	// Anything else goes to json.Marshal unchanged.
	lh := livehostsRecord{}
	if got, err := marshalJSON(lh); err != nil || !bytes.Equal(got, must(json.Marshal(lh))) {
		t.Fatalf("fallback record: %s, %v", got, err)
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// marshalJSON returns json.Marshal(v): the tick records through
// tickEncoder, anything else, and what it refuses, through json.Marshal.
func marshalJSON(v any) ([]byte, error) {
	var e tickEncoder
	if e.encode(v) {
		return e.B, nil
	}
	return json.Marshal(v)
}

// encode replaces e.B with v's JSON, the way the daemons' put methods
// write it, and reports whether it could.
func (e *tickEncoder) encode(v any) bool {
	e.reset()
	switch r := v.(type) {
	case metrics.NodeAttrs:
		e.nodeAttrs(&r)
	case heartbeat:
		e.heartbeat(r.At)
	case []metrics.PairLatency:
		canon.AppendList(&e.Encoder, ``, r, e.latency)
	case []metrics.PairBandwidth:
		canon.AppendList(&e.Encoder, ``, r, e.bandwidth)
	default:
		return false
	}
	return e.OK
}

// nodeAttrs writes a with canon's writers, floats and all. The daemons
// write their record from the series' integers (NodeStateD.publish); the
// tests use this one to tell which records of any floats canon takes.
func (e *tickEncoder) nodeAttrs(a *metrics.NodeAttrs) {
	e.Int(`{"node_id":`, int64(a.NodeID))
	e.Str(`,"hostname":`, a.Hostname)
	e.time(`,"timestamp":`, a.Timestamp)
	e.Int(`,"cores":`, int64(a.Cores))
	e.Float(`,"freq_ghz":`, a.FreqGHz)
	e.Float(`,"total_mem_mb":`, a.TotalMemMB)
	e.Int(`,"users":`, int64(a.Users))
	for _, m := range []struct {
		key string
		w   stats.Windowed
	}{{`,"cpu_load":`, a.CPULoad}, {`,"cpu_util_pct":`, a.CPUUtilPct}, {`,"flow_rate_bps":`, a.FlowRateBps}, {`,"avail_mem_mb":`, a.AvailMemMB}} {
		e.Float(m.key+`{"M1":`, m.w.M1)
		e.Float(`,"M5":`, m.w.M5)
		e.Float(`,"M15":`, m.w.M15)
		e.Raw(`}`)
	}
	e.Raw(`}`)
}

// Property: the record a LivehostsD puts is json.Marshal's bytes, nil and
// empty host lists included, and it fails exactly when json.Marshal does.
func TestPutLivehostsMatchesJSON(t *testing.T) {
	g := tickGen{rng.New(29)}
	st := store.NewMem()
	var e tickEncoder
	for i := 0; i < 2000; i++ {
		rec := g.livehosts()
		want, wantErr := json.Marshal(rec)
		_ = st.Delete("k")
		gotErr := e.putLivehosts(st, "k", &rec)
		got, _ := st.Get("k")
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%#v:\n got %s (err %v)\nwant %s (err %v)", rec, got, gotErr, want, wantErr)
		}
	}
}

// TestRepeatedTimestampsMatchJSON drives the tick codec's timestamp reuse
// through what it must tell apart: one encoder writing list after list,
// as a daemon does, where a timestamp repeats, changes, comes back in
// another zone or leaves the years canon takes. Each list encodes to
// json.Marshal's bytes, or is refused as json.Marshal refuses it, and
// decodes, on the fast path, to json.Unmarshal's value.
func TestRepeatedTimestampsMatchJSON(t *testing.T) {
	at := time.Date(2020, 3, 2, 8, 0, 0, 500, time.UTC)
	times := []time.Time{at, at.Add(time.Second), at.In(time.FixedZone("", 3600)),
		at.In(time.FixedZone("CET", 3600)), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}
	r := rng.New(5)
	var e tickEncoder
	for trial := range 300 {
		list := make([]metrics.PairLatency, 1+r.Intn(8))
		for i := range list {
			list[i] = metrics.PairLatency{U: i, V: i + 1, Timestamp: times[r.Intn(len(times))], Last: time.Duration(r.Intn(1e6))}
		}
		want, wantErr := json.Marshal(list)
		e.reset()
		canon.AppendList(&e.Encoder, ``, list, e.latency)
		if e.OK != (wantErr == nil) || e.OK && !bytes.Equal(e.B, want) {
			t.Fatalf("trial %d: wrote %s (OK %v); json.Marshal %s (err %v)", trial, e.B, e.OK, want, wantErr)
		}
		if hb := (heartbeat{At: list[0].Timestamp}); e.encode(hb) != (list[0].Timestamp.Year() < 10000) ||
			e.OK && !bytes.Equal(e.B, must(json.Marshal(hb))) {
			t.Fatalf("trial %d: heartbeat wrote %s (OK %v)", trial, e.B, e.OK)
		}
		if wantErr != nil {
			continue
		}
		var got, ref []metrics.PairLatency
		if !decodeRecord(want, &got) || json.Unmarshal(want, &ref) != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: %s decoded to %v, json.Unmarshal %v", trial, want, got, ref)
		}
	}
}

// Property: the record NodeStateD writes from its series' integers is
// json.Marshal's bytes for the metrics.NodeAttrs of the same means, each
// float64(k)/1000 or, for the flow rate, float64(k), and it fails exactly
// when json.Marshal does. The draws reach past the 1e15 and 2^53 bounds
// of the integer paths; the static attributes change between ticks, to
// -0 among others; a hostname that needs escaping and a year past 9999
// take putJSON, and nothing else does.
func TestNodeRecordMatchesJSON(t *testing.T) {
	r := rng.New(31)
	st := store.NewMem()
	d := NewNodeStateD(7, nil, st, 5*time.Second)
	d.enc = new(tickEncoder)
	draw := func() int64 {
		k := int64(r.Uint64() >> (8 + r.Intn(56)))
		if r.Intn(3) == 0 {
			k = -k
		}
		return k
	}
	now := t0
	fallbacks := 0
	for trial := range 3000 {
		now = now.Add(time.Duration(1+r.Intn(120)) * time.Second)
		if err := d.series.Add(now, draw(), draw(), draw(), draw()); err != nil {
			t.Fatal(err)
		}
		host := []string{"csews8", "csews8", "csews9", "", "n<1>", "nöde"}[r.Intn(6)]
		cores := []int{8, 8, 16}[r.Intn(3)]
		freq := []float64{3.4, 3.4, 2.1, 0, math.Copysign(0, -1)}[r.Intn(5)]
		mem := []float64{16384, 16384, 8192.5, 1e21, math.Copysign(0, -1)}[r.Intn(5)]
		at := now
		if r.Intn(20) == 0 {
			at = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		users := r.Intn(9) - 1
		s := d.series
		mean := func(c int, res float64) stats.Windowed {
			return stats.Windowed{M1: float64(s.Mean(0, c)) / res, M5: float64(s.Mean(1, c)) / res, M15: float64(s.Mean(2, c)) / res}
		}
		want, wantErr := json.Marshal(metrics.NodeAttrs{
			NodeID: 7, Hostname: host, Timestamp: at, Cores: cores, FreqGHz: freq, TotalMemMB: mem, Users: users,
			CPULoad: mean(0, 1000), CPUUtilPct: mean(1, 1000), FlowRateBps: mean(2, 1), AvailMemMB: mean(3, 1000),
		})
		_ = st.Delete(d.key)
		gotErr := d.publish(at, users, host, cores, freq, mem)
		got, _ := st.Get(d.key)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s (err %v)\nwant %s (err %v)", trial, got, gotErr, want, wantErr)
		}
		refused := host == "n<1>" || host == "nöde" || at.Year() > 9999
		if d.enc.OK == refused {
			t.Fatalf("trial %d: host %q at %v took putJSON: %v", trial, host, at, !d.enc.OK)
		}
		if refused {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Fatal("no draw took putJSON")
	}
}
