package stats

import (
	"math"
	"testing"
)

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
