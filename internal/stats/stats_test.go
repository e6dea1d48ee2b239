package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
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
	if len(ts.samples) > 8 {
		t.Fatalf("series retained %d samples, maxAge 1m at 10s cadence", len(ts.samples))
	}
}

func TestTimeSeriesEmptyWindows(t *testing.T) {
	ts := NewTimeSeries(16 * time.Minute)
	if _, ok := ts.MeanOver(t0, time.Minute); ok {
		t.Fatal("MeanOver on empty series reported ok")
	}
	w := ts.Means(t0)
	if w.M1 != 0 || w.M5 != 0 || w.M15 != 0 {
		t.Fatalf("empty Means = %+v", w)
	}
	// Single old sample: windows fall back to last value.
	_ = ts.Add(t0, 42)
	w = ts.Means(t0.Add(10 * time.Minute))
	if w.M1 != 42 {
		t.Fatalf("fallback M1 = %g, want 42", w.M1)
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

func TestNormalizeSumBasic(t *testing.T) {
	out, err := NormalizeSum([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized sum = %g", sum)
	}
	if out[0] != 0.1 || out[3] != 0.4 {
		t.Fatalf("normalized = %v", out)
	}
}

func TestNormalizeSumZeros(t *testing.T) {
	out, err := NormalizeSum([]float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("all-zero input normalized to %v", out)
		}
	}
}

func TestNormalizeSumRejectsNegative(t *testing.T) {
	if _, err := NormalizeSum([]float64{1, -1}); err == nil {
		t.Fatal("negative input accepted")
	}
}

// Property: normalization preserves order and sums to 1 (or 0).
func TestNormalizeSumProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		out, err := NormalizeSum(vals)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range out {
			sum += v
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			return false
		}
		for i := 1; i < len(vals); i++ {
			if (vals[i] > vals[i-1]) != (out[i] > out[i-1]) && vals[i] != vals[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSAWCostsPrefersBetterNode(t *testing.T) {
	attrs := []Attribute{
		{Name: "load", Weight: 0.7, Criterion: Minimize},
		{Name: "mem", Weight: 0.3, Criterion: Maximize},
	}
	// Row 0 dominates row 1: less load, more memory.
	costs, err := SAWCosts(attrs, [][]float64{{1, 8}, {5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if costs[0] >= costs[1] {
		t.Fatalf("dominating alternative scored worse: %v", costs)
	}
}

func TestSAWCostsWeightSensitivity(t *testing.T) {
	// Node A: low load, low memory. Node B: high load, high memory.
	matrix := [][]float64{{1, 1}, {9, 9}}
	loadHeavy := []Attribute{
		{Name: "load", Weight: 0.9, Criterion: Minimize},
		{Name: "mem", Weight: 0.1, Criterion: Maximize},
	}
	memHeavy := []Attribute{
		{Name: "load", Weight: 0.1, Criterion: Minimize},
		{Name: "mem", Weight: 0.9, Criterion: Maximize},
	}
	c1, err := SAWCosts(loadHeavy, matrix)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := SAWCosts(memHeavy, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if c1[0] >= c1[1] {
		t.Fatalf("load-heavy weights should prefer node A: %v", c1)
	}
	if c2[1] >= c2[0] {
		t.Fatalf("mem-heavy weights should prefer node B: %v", c2)
	}
}

func TestSAWCostsValidation(t *testing.T) {
	attrs := []Attribute{{Name: "a", Weight: 1, Criterion: Minimize}}
	if _, err := SAWCosts(attrs, [][]float64{{1, 2}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	bad := []Attribute{{Name: "a", Weight: -1, Criterion: Minimize}}
	if _, err := SAWCosts(bad, [][]float64{{1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if out, err := SAWCosts(attrs, nil); err != nil || out != nil {
		t.Fatalf("empty matrix: %v %v", out, err)
	}
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

func TestCriterionString(t *testing.T) {
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Fatal("Criterion.String broken")
	}
	if Criterion(9).String() == "" {
		t.Fatal("unknown criterion produced empty string")
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
