package stats

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/rng"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesMeans(t *testing.T) {
	ts := NewTimeSeries(16 * time.Minute)
	// One sample per 10s for 15 minutes: value = minute index.
	for i := 0; i <= 90; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		if err := ts.Add(at, float64(i)/6); err != nil {
			t.Fatal(err)
		}
	}
	now := t0.Add(15 * time.Minute)
	w := ts.Means(now)
	// 1-minute window covers samples with value ~14.5; 15-minute ~7.5.
	if w.M1 < 14 || w.M1 > 15 {
		t.Fatalf("M1 = %g", w.M1)
	}
	if w.M5 < 12 || w.M5 > 13 {
		t.Fatalf("M5 = %g", w.M5)
	}
	if w.M15 < 7 || w.M15 > 8 {
		t.Fatalf("M15 = %g", w.M15)
	}
}

func TestTimeSeriesRejectsOutOfOrder(t *testing.T) {
	ts := NewTimeSeries(time.Minute)
	if err := ts.Add(t0.Add(time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := ts.Add(t0, 2); err == nil {
		t.Fatal("out-of-order sample accepted")
	}
}

func TestTimeSeriesTrimsOldSamples(t *testing.T) {
	ts := NewTimeSeries(time.Minute)
	for i := 0; i < 100; i++ {
		_ = ts.Add(t0.Add(time.Duration(i)*10*time.Second), 1)
	}
	// Only samples within the last minute survive (6-7 samples).
	if n := len(ts.t) - ts.head; n > 8 {
		t.Fatalf("series retained %d samples, maxAge 1m at 10s cadence", n)
	}
}

func TestTimeSeriesEmptyWindows(t *testing.T) {
	ts := NewTimeSeries(16 * time.Minute)
	w := ts.Means(t0)
	if w.M1 != 0 || w.M5 != 0 || w.M15 != 0 {
		t.Fatalf("empty Means = %+v", w)
	}
	// Single old sample: windows fall back to last value.
	_ = ts.Add(t0, 42)
	w = ts.Means(t0.Add(10 * time.Minute))
	if w.M1 != 42 || w.M5 != 42 || w.M15 != 42 {
		t.Fatalf("fallback Means = %+v, want 42 throughout", w)
	}
	// Only samples after now: every window is empty and falls back too.
	_ = ts.Add(t0.Add(time.Minute), 7)
	if w = ts.Means(t0.Add(-time.Second)); w.M1 != 7 || w.M15 != 7 {
		t.Fatalf("future-only Means = %+v, want fallback 7", w)
	}
}

// refSeries is the three-pass implementation Means replaced, kept as the
// oracle: time.Time samples, a whole-window memmove on every trim, and a
// separate newest-to-oldest scan per window.
type refSeries struct {
	maxAge  time.Duration
	samples []Sample
}

func (r *refSeries) add(t time.Time, v float64) {
	r.samples = append(r.samples, Sample{T: t, V: v})
	cutoff := t.Add(-r.maxAge)
	i := 0
	for i < len(r.samples) && r.samples[i].T.Before(cutoff) {
		i++
	}
	r.samples = append(r.samples[:0], r.samples[i:]...)
}

func (r *refSeries) meanOver(now time.Time, window time.Duration) (float64, bool) {
	cutoff := now.Add(-window)
	sum, n := 0.0, 0
	for i := len(r.samples) - 1; i >= 0; i-- {
		s := r.samples[i]
		if s.T.After(now) {
			continue
		}
		if !s.T.After(cutoff) {
			break
		}
		sum += s.V
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func (r *refSeries) means(now time.Time) [3]float64 {
	fallback := 0.0
	if n := len(r.samples); n > 0 {
		fallback = r.samples[n-1].V
	}
	var out [3]float64
	for i, w := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute} {
		out[i] = fallback
		if m, ok := r.meanOver(now, w); ok {
			out[i] = m
		}
	}
	return out
}

// Property: Means is bit-identical to the three-pass oracle for every
// window, over irregularly spaced series (repeated timestamps, gaps that
// empty every window), query instants before the newest sample, series
// long enough to cross the head compaction many times, and retention
// both longer and shorter than the 15-minute window.
func TestMeansMatchesThreePassOracle(t *testing.T) {
	r := rng.New(27)
	for _, maxAge := range []time.Duration{time.Minute, 6 * time.Minute, 16 * time.Minute} {
		for trial := 0; trial < 20; trial++ {
			ts := NewTimeSeries(maxAge)
			ref := &refSeries{maxAge: maxAge}
			at := t0
			for i := 0; i < 600; i++ {
				switch k := r.Intn(20); {
				case k == 0:
					at = at.Add(time.Duration(r.Intn(20)) * time.Minute) // may empty every window
				case k < 3:
					// repeated timestamp
				default:
					at = at.Add(time.Duration(r.Intn(int(20 * time.Second))))
				}
				// Magnitudes far apart, so a changed summation order shows.
				v := r.NormMS(0, 1) * math.Pow(10, float64(r.Intn(13)-6))
				if err := ts.Add(at, v); err != nil {
					t.Fatal(err)
				}
				ref.add(at, v)
				if live := len(ts.t) - ts.head; live != len(ref.samples) {
					t.Fatalf("maxAge %v step %d: %d live samples, oracle %d", maxAge, i, live, len(ref.samples))
				}
				now := at.Add(-time.Duration(r.Intn(int(2*time.Minute))) * time.Duration(r.Intn(2)))
				got, want := ts.Means(now), ref.means(now)
				for w, g := range []float64{got.M1, got.M5, got.M15} {
					if math.Float64bits(g) != math.Float64bits(want[w]) {
						t.Fatalf("maxAge %v step %d window %d: Means %v, oracle %v", maxAge, i, w, g, want[w])
					}
				}
			}
		}
	}
}

func TestTimeSeriesLast(t *testing.T) {
	ts := NewTimeSeries(time.Minute)
	if _, ok := ts.Last(); ok {
		t.Fatal("Last on empty series reported ok")
	}
	_ = ts.Add(t0, 5)
	_ = ts.Add(t0.Add(time.Second), 7)
	last, ok := ts.Last()
	if !ok || last.V != 7 {
		t.Fatalf("Last = %+v", last)
	}
}

func TestNewTimeSeriesPanicsOnBadAge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for maxAge <= 0")
		}
	}()
	NewTimeSeries(0)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 2, 8, 6})
	if s.N != 4 || s.Mean != 5 || s.Median != 5 || s.Min != 2 || s.Max != 8 {
		t.Fatalf("summary = %+v", s)
	}
	wantStd := math.Sqrt((9 + 1 + 1 + 9) / 4.0)
	if math.Abs(s.StdDev-wantStd) > 1e-12 {
		t.Fatalf("stddev = %g, want %g", s.StdDev, wantStd)
	}
	if math.Abs(s.CoV-wantStd/5) > 1e-12 {
		t.Fatalf("CoV = %g", s.CoV)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	if m := Summarize([]float64{3, 1, 2}).Median; m != 2 {
		t.Fatalf("median = %g", m)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.CoV != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if p := s.Percentile(50); p != 0 {
		t.Fatalf("empty percentile = %g", p)
	}
}

func TestPercentile(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40, 50})
	cases := map[float64]float64{0: 10, 25: 20, 50: 30, 75: 40, 100: 50, -5: 10, 110: 50}
	for p, want := range cases {
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if got := s.Percentile(10); math.Abs(got-14) > 1e-9 {
		t.Fatalf("Percentile(10) = %g, want 14 (interpolated)", got)
	}
}

func TestGainPercent(t *testing.T) {
	if g := GainPercent(10, 5); g != 50 {
		t.Fatalf("GainPercent(10,5) = %g", g)
	}
	if g := GainPercent(10, 15); g != -50 {
		t.Fatalf("GainPercent(10,15) = %g", g)
	}
	if g := GainPercent(0, 5); g != 0 {
		t.Fatalf("GainPercent(0,5) = %g", g)
	}
}

func TestMeanAndClamp(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %g", m)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %g", m)
	}
	if v := Clamp(5, 0, 3); v != 3 {
		t.Fatalf("Clamp high = %g", v)
	}
	if v := Clamp(-1, 0, 3); v != 0 {
		t.Fatalf("Clamp low = %g", v)
	}
	if v := Clamp(2, 0, 3); v != 2 {
		t.Fatalf("Clamp mid = %g", v)
	}
}

func TestPearson(t *testing.T) {
	// Perfect positive correlation.
	if r := Pearson([]float64{1, 2, 3}, []float64{10, 20, 30}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation r=%g", r)
	}
	// Perfect negative correlation.
	if r := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("negative correlation r=%g", r)
	}
	// Constant series: degenerate.
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("constant series r=%g", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Fatalf("empty r=%g", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths accepted")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}
