package stats

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/rng"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesMeans(t *testing.T) {
	ts := NewTimeSeries(16*time.Minute, 1)
	// One sample per 10s for 15 minutes: value = minute index.
	for i := 0; i <= 90; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		if err := ts.Add(at, float64(i)/6); err != nil {
			t.Fatal(err)
		}
	}
	now := t0.Add(15 * time.Minute)
	w := means1(ts, now)
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
	ts := NewTimeSeries(time.Minute, 1)
	if err := ts.Add(t0.Add(time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := ts.Add(t0, 2); err == nil {
		t.Fatal("out-of-order sample accepted")
	}
}

func TestTimeSeriesTrimsOldSamples(t *testing.T) {
	ts := NewTimeSeries(time.Minute, 1)
	for i := 0; i < 100; i++ {
		_ = ts.Add(t0.Add(time.Duration(i)*10*time.Second), 1)
	}
	// Only samples within the last minute survive (6-7 samples).
	if n := len(ts.t) - ts.head; n > 8 {
		t.Fatalf("series retained %d samples, maxAge 1m at 10s cadence", n)
	}
}

func TestTimeSeriesEmptyWindows(t *testing.T) {
	ts := NewTimeSeries(16*time.Minute, 1)
	w := means1(ts, t0)
	if w.M1 != 0 || w.M5 != 0 || w.M15 != 0 {
		t.Fatalf("empty Means = %+v", w)
	}
	// Single old sample: windows fall back to last value.
	_ = ts.Add(t0, 42)
	w = means1(ts, t0.Add(10*time.Minute))
	if w.M1 != 42 || w.M5 != 42 || w.M15 != 42 {
		t.Fatalf("fallback Means = %+v, want 42 throughout", w)
	}
	// Only samples after now: every window is empty and falls back too.
	_ = ts.Add(t0.Add(time.Minute), 7)
	if w = means1(ts, t0.Add(-time.Second)); w.M1 != 7 || w.M15 != 7 {
		t.Fatalf("future-only Means = %+v, want fallback 7", w)
	}
}

// means1 returns the running means of a one-column series.
func means1(ts *TimeSeries, now time.Time) Windowed {
	var w [1]Windowed
	ts.Means(now, w[:])
	return w[0]
}

// Sample is a timestamped observation of refSeries.
type Sample struct {
	T time.Time
	V float64
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
			ts := NewTimeSeries(maxAge, 1)
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
				got, want := means1(ts, now), ref.means(now)
				for w, g := range []float64{got.M1, got.M5, got.M15} {
					if math.Float64bits(g) != math.Float64bits(want[w]) {
						t.Fatalf("maxAge %v step %d window %d: Means %v, oracle %v", maxAge, i, w, g, want[w])
					}
				}
			}
		}
	}
}

// onePass is the single-column series the k-column one replaced, kept
// as the oracle of its column arithmetic: one newest-to-oldest walk that
// closes each window as it crosses the window's boundary.
type onePass struct {
	maxAge time.Duration
	head   int
	t      []int64
	v      []float64
}

func (ts *onePass) add(t time.Time, v float64) {
	at := t.UnixNano()
	ts.t = append(ts.t, at)
	ts.v = append(ts.v, v)
	cutoff := at - int64(ts.maxAge)
	for ts.t[ts.head] < cutoff {
		ts.head++
	}
	if ts.head > len(ts.t)/2 {
		n := copy(ts.t, ts.t[ts.head:])
		copy(ts.v, ts.v[ts.head:])
		ts.t, ts.v, ts.head = ts.t[:n], ts.v[:n], 0
	}
}

func (ts *onePass) means(now time.Time) Windowed {
	fallback := 0.0
	if n := len(ts.t); n > 0 {
		fallback = ts.v[n-1]
	}
	at := now.UnixNano()
	var mean [3]float64
	sum, count, w := 0.0, 0, 0
	for i := len(ts.t) - 1; i >= ts.head; i-- {
		if ts.t[i] > at {
			continue
		}
		for w < len(windows) && ts.t[i] <= at-int64(windows[w]) {
			mean[w] = meanOr(sum, count, fallback)
			w++
		}
		if w == len(windows) {
			break
		}
		sum += ts.v[i]
		count++
	}
	for ; w < len(windows); w++ {
		mean[w] = meanOr(sum, count, fallback)
	}
	return Windowed{M1: mean[0], M5: mean[1], M15: mean[2]}
}

// Property: every column of a k-column series has, bit for bit, the
// means of a single-column series fed that column alone. The streams
// have gaps that empty every window (the fallback), query instants
// before the newest sample, repeated timestamps, and are long enough to
// compact many times; k = 1 is LatencyD's series, k = 4 NodeStateD's.
func TestMeansMatchesOnePassPerColumn(t *testing.T) {
	r := rng.New(41)
	compacted := false
	for _, k := range []int{1, 4} {
		for _, maxAge := range []time.Duration{time.Minute, 6 * time.Minute, 16 * time.Minute} {
			for trial := 0; trial < 10; trial++ {
				ts := NewTimeSeries(maxAge, k)
				refs := make([]onePass, k)
				for c := range refs {
					refs[c].maxAge = maxAge
				}
				got := make([]Windowed, k)
				row := make([]float64, k)
				at := t0
				for i := 0; i < 500; i++ {
					switch d := r.Intn(20); {
					case d == 0:
						at = at.Add(time.Duration(r.Intn(20)) * time.Minute)
					case d < 3:
					default:
						at = at.Add(time.Duration(r.Intn(int(20 * time.Second))))
					}
					for c := range row {
						row[c] = r.NormMS(0, 1) * math.Pow(10, float64(r.Intn(13)-6))
						refs[c].add(at, row[c])
					}
					if err := ts.Add(at, row...); err != nil {
						t.Fatal(err)
					}
					compacted = compacted || len(ts.t) < i+1
					now := at.Add(-time.Duration(r.Intn(int(2*time.Minute))) * time.Duration(r.Intn(2)))
					switch r.Intn(10) {
					case 0: // past every sample, maybe past every window
						now = at.Add(time.Duration(r.Intn(20)) * time.Minute)
					case 1: // the newest sample just after now
						now = at.Add(-time.Nanosecond)
					}
					ts.Means(now, got)
					for c := range got {
						want := refs[c].means(now)
						g, w := got[c], want
						for j, pair := range [3][2]float64{{g.M1, w.M1}, {g.M5, w.M5}, {g.M15, w.M15}} {
							if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
								t.Fatalf("k %d maxAge %v step %d column %d window %d: Means %v, one-pass %v",
									k, maxAge, i, c, j, pair[0], pair[1])
							}
						}
					}
				}
			}
		}
	}
	if !compacted {
		t.Fatal("no stream compacted its series")
	}
}

// An empty k-column series means 0 in every column and window; a
// series with only samples after now falls back to each column's newest
// value.
func TestMeansEmptyColumns(t *testing.T) {
	ts := NewTimeSeries(16*time.Minute, 2)
	got := make([]Windowed, 2)
	ts.Means(t0, got)
	if got[0] != (Windowed{}) || got[1] != (Windowed{}) {
		t.Fatalf("empty Means = %+v", got)
	}
	_ = ts.Add(t0.Add(time.Minute), 3, 4)
	ts.Means(t0, got)
	if got[0] != (Windowed{3, 3, 3}) || got[1] != (Windowed{4, 4, 4}) {
		t.Fatalf("future-only Means = %+v, want the newest values", got)
	}
}

func TestNewTimeSeriesPanicsOnBadAge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for maxAge <= 0")
		}
	}()
	NewTimeSeries(0, 1)
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

// A series has at least one column, and Add and Means take exactly k.
func TestTimeSeriesColumnCountChecked(t *testing.T) {
	ts := NewTimeSeries(time.Minute, 2)
	for name, f := range map[string]func(){
		"zero columns": func() { NewTimeSeries(time.Minute, 0) },
		"short add":    func() { _ = ts.Add(t0, 1) },
		"long means":   func() { ts.Means(t0, make([]Windowed, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
