package stats

import (
	"math"
	"math/big"
	"slices"
	"testing"
	"time"

	"nlarm/internal/rng"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// paperSpans are the 1/5/15-minute windows NodeStateD keeps.
var paperSpans = []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// means returns column c's mean over every window of s.
func means(s *Series, c int) []int64 {
	out := make([]int64, len(s.spans))
	for w := range out {
		out[w] = s.Mean(w, c)
	}
	return out
}

func TestTimeSeriesMeans(t *testing.T) {
	s := NewSeries(1, paperSpans...)
	// One sample per 10 s for 15 minutes, sample i valued i.
	for i := 0; i <= 90; i++ {
		if err := s.Add(t0.Add(time.Duration(i)*10*time.Second), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The windows end at 15:00 and exclude their start: samples 85-90
	// (mean 87.5), 61-90 (75.5) and 1-90 (45.5), halves rounded up.
	if got, want := means(s, 0), []int64{88, 76, 46}; !slices.Equal(got, want) {
		t.Fatalf("means %v, want %v", got, want)
	}
}

func TestTimeSeriesRejectsOutOfOrder(t *testing.T) {
	s := NewSeries(1, time.Minute)
	if err := s.Add(t0.Add(time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(t0, 2); err == nil {
		t.Fatal("out-of-order sample accepted")
	}
	if err := s.Add(t0.Add(time.Second), 3); err != nil {
		t.Fatalf("repeated timestamp rejected: %v", err)
	}
	if got := s.Mean(0, 0); got != 2 {
		t.Fatalf("mean %d after the rejected sample, want 2", got)
	}
}

func TestTimeSeriesTrimsOldSamples(t *testing.T) {
	s := NewSeries(1, time.Minute)
	for i := 0; i < 100; i++ {
		_ = s.Add(t0.Add(time.Duration(i)*10*time.Second), 1)
	}
	// Only samples within the last minute stay live (6), and compaction
	// keeps the dead prefix no longer than the live part.
	if kept := len(s.rows) / 2; kept-s.head[0] != 6 || kept > 2*6+1 {
		t.Fatalf("%d live of %d kept samples, span 1m at 10s cadence", kept-s.head[0], kept)
	}
}

// A series with no sample means 0; a window a gap has emptied holds only
// the newest sample, which is then its mean.
func TestTimeSeriesEmptyWindows(t *testing.T) {
	s := NewSeries(1, paperSpans...)
	if got := means(s, 0); !slices.Equal(got, []int64{0, 0, 0}) {
		t.Fatalf("empty means %v", got)
	}
	_ = s.Add(t0, 42)
	if got := means(s, 0); !slices.Equal(got, []int64{42, 42, 42}) {
		t.Fatalf("single-sample means %v, want 42 throughout", got)
	}
	_ = s.Add(t0.Add(3*time.Minute), 7)
	if got := means(s, 0); !slices.Equal(got, []int64{7, 25, 25}) {
		t.Fatalf("means %v after a 3-minute gap, want the newest 7, then (42+7)/2 rounded", got)
	}
	_ = s.Add(t0.Add(30*time.Minute), -5)
	if got := means(s, 0); !slices.Equal(got, []int64{-5, -5, -5}) {
		t.Fatalf("means %v after a 27-minute gap, want the newest -5", got)
	}
}

// An empty k-column series means 0 in every column and window; one
// sample is each column's mean in every window.
func TestMeansEmptyColumns(t *testing.T) {
	s := NewSeries(2, paperSpans...)
	if !slices.Equal(means(s, 0), []int64{0, 0, 0}) || !slices.Equal(means(s, 1), []int64{0, 0, 0}) {
		t.Fatalf("empty means %v %v", means(s, 0), means(s, 1))
	}
	_ = s.Add(t0, 3, 4)
	if !slices.Equal(means(s, 0), []int64{3, 3, 3}) || !slices.Equal(means(s, 1), []int64{4, 4, 4}) {
		t.Fatalf("one-sample means %v %v", means(s, 0), means(s, 1))
	}
}

// stream feeds add a seeded sample stream: repeated timestamps, gaps that
// empty every window, cadences from 0 to 20 s, values of both signs from
// 0 to ~1e15 in magnitude.
func stream(r *rng.Rand, n int, add func(at time.Time, v int64)) {
	at := t0
	for i := 0; i < n; i++ {
		switch d := r.Intn(20); {
		case d == 0:
			at = at.Add(time.Duration(r.Intn(20)) * time.Minute)
		case d < 3:
		default:
			at = at.Add(time.Duration(r.Intn(int(20 * time.Second))))
		}
		add(at, int64(r.NormMS(0, 1)*math.Pow(10, float64(r.Intn(16)))))
	}
}

// roundedMean is the re-sum reference: sum/n by math/big, halves away
// from zero, as trunc((2·sum + sign(sum)·n) / 2n).
func roundedMean(vals []int64) int64 {
	sum, n := new(big.Int), big.NewInt(int64(len(vals)))
	for _, v := range vals {
		sum.Add(sum, big.NewInt(v))
	}
	num := new(big.Int).Lsh(sum, 1)
	if sum.Sign() < 0 {
		num.Sub(num, n)
	} else {
		num.Add(num, n)
	}
	return num.Quo(num, n.Lsh(n, 1)).Int64()
}

// Property: every window mean equals a naive re-sum of the raw samples
// in the window, rounded by Mean's rule, over random cadences and gaps,
// for one, two and three windows, long enough to compact many times.
func TestMeansMatchesThreePassOracle(t *testing.T) {
	r := rng.New(27)
	for _, spans := range [][]time.Duration{{time.Minute}, {time.Minute, 5 * time.Minute}, paperSpans} {
		for trial := 0; trial < 10; trial++ {
			s := NewSeries(1, spans...)
			var raw []int64
			var rawT []time.Time
			stream(r, 600, func(at time.Time, v int64) {
				if err := s.Add(at, v); err != nil {
					t.Fatal(err)
				}
				raw, rawT = append(raw, v), append(rawT, at)
				for w, span := range spans {
					var in []int64
					for i := range raw {
						if rawT[i].After(at.Add(-span)) {
							in = append(in, raw[i])
						}
					}
					if got, want := s.Mean(w, 0), roundedMean(in); got != want {
						t.Fatalf("spans %v sample %d window %d: Mean %d, re-sum %d", spans, len(raw), w, got, want)
					}
				}
			})
			if kept := len(s.rows) / 2; kept >= len(raw) {
				t.Fatalf("spans %v: %d samples kept of %d, never trimmed", spans, kept, len(raw))
			}
		}
	}
}

// Property: every column of a k-column series has the means of a
// one-column series fed that column alone (k = 4 is NodeStateD's).
func TestMeansMatchesOnePassPerColumn(t *testing.T) {
	r := rng.New(41)
	const k = 4
	for trial := 0; trial < 10; trial++ {
		s := NewSeries(k, paperSpans...)
		var cols [k]*Series
		for c := range cols {
			cols[c] = NewSeries(1, paperSpans...)
		}
		row := make([]int64, k)
		stream(r, 500, func(at time.Time, v int64) {
			for c := range row {
				row[c] = v >> (8 * c)
				_ = cols[c].Add(at, row[c])
			}
			if err := s.Add(at, row...); err != nil {
				t.Fatal(err)
			}
			for c := range cols {
				if got, want := means(s, c), means(cols[c], 0); !slices.Equal(got, want) {
					t.Fatalf("trial %d column %d: means %v, one-column %v", trial, c, got, want)
				}
			}
		})
	}
}

func TestNewTimeSeriesPanicsOnBadAge(t *testing.T) {
	for name, spans := range map[string][]time.Duration{
		"none":       nil,
		"zero":       {0},
		"negative":   {-time.Minute},
		"descending": {5 * time.Minute, time.Minute},
		"repeated":   {time.Minute, time.Minute},
		"four":       {1, 2, 3, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for spans %v", name, spans)
				}
			}()
			NewSeries(1, spans...)
		}()
	}
}

// A series has at least one column, and Add takes exactly k values.
func TestTimeSeriesColumnCountChecked(t *testing.T) {
	s := NewSeries(2, time.Minute)
	for name, f := range map[string]func(){
		"zero columns": func() { NewSeries(0, time.Minute) },
		"short add":    func() { _ = s.Add(t0, 1) },
		"long add":     func() { _ = s.Add(t0, 1, 2, 3) },
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

// Round and Mean round the same way: to the nearest integer, halves away
// from zero.
func TestRoundHalvesAwayFromZero(t *testing.T) {
	for _, c := range []struct {
		v, unit float64
		want    int64
	}{{2.5, 1, 3}, {-2.5, 1, -3}, {1.2344, 1000, 1234}, {1.2346, 1000, 1235}, {0.5, 1000, 500}, {-0.0015, 1000, -2}, {3e9 + 0.5, 1, 3e9 + 1}} {
		if got := Round(c.v, c.unit); got != c.want {
			t.Errorf("Round(%v, %v) = %d, want %d", c.v, c.unit, got, c.want)
		}
	}
	s := NewSeries(1, time.Minute)
	for i, v := range []int64{-3, 0, 4, -2} {
		_ = s.Add(t0.Add(time.Duration(i)), v)
		// Means -3, -1.5, 0.333, -0.25.
		if got, want := s.Mean(0, 0), []int64{-3, -2, 0, 0}[i]; got != want {
			t.Errorf("after %d samples: Mean %d, want %d", i+1, got, want)
		}
	}
}
