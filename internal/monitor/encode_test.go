package monitor

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
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
		return heartbeat{Name: g.str(), At: g.time()}
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
