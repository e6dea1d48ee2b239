package forecast

import (
	"math"
	"testing"

	"nlarm/internal/rng"
)

func feed(f *Forecaster, vals []float64) {
	for _, v := range vals {
		f.Observe(v)
	}
}

func TestEmptyForecaster(t *testing.T) {
	f := New()
	if _, _, ok := f.Forecast(); ok {
		t.Fatal("forecast with no data reported ok")
	}
	if f.N() != 0 {
		t.Fatalf("N = %d", f.N())
	}
}

func TestSingleObservationFallsBackToLast(t *testing.T) {
	f := New()
	f.Observe(7)
	v, _, ok := f.Forecast()
	if !ok || v != 7 {
		t.Fatalf("forecast after one sample: %g %v", v, ok)
	}
}

// rmseOf reads each scored method's root-mean-squared one-step error out
// of the forecaster's selection state.
func rmseOf(f *Forecaster) map[string]float64 {
	out := make(map[string]float64, len(f.predictors))
	for i, p := range f.predictors {
		if f.errCount[i] > 0 {
			out[p.Name()] = math.Sqrt(f.sqErrSum[i] / float64(f.errCount[i]))
		}
	}
	return out
}

func TestConstantSeriesPredictsConstant(t *testing.T) {
	f := New()
	for i := 0; i < 100; i++ {
		f.Observe(5)
	}
	v, _, ok := f.Forecast()
	if !ok || math.Abs(v-5) > 1e-9 {
		t.Fatalf("constant series forecast %g", v)
	}
	for name, rmse := range rmseOf(f) {
		if rmse > 1e-9 && name != "ar1" {
			t.Fatalf("method %s has error %g on a constant series", name, rmse)
		}
	}
}

func TestRandomWalkFavoursLastValue(t *testing.T) {
	r := rng.New(1)
	f := New()
	v := 10.0
	for i := 0; i < 2000; i++ {
		v += r.NormMS(0, 0.5)
		f.Observe(v)
	}
	// For a random walk, "last value" is the optimal predictor; the
	// winner must track the series closely (error near the step size).
	rmse := rmseOf(f)
	_, best, _ := f.Forecast()
	if rmse[best] > rmse["running-mean"] {
		t.Fatalf("winner %s (rmse %g) worse than running-mean (%g)", best, rmse[best], rmse["running-mean"])
	}
	if rmse["last"] > 0.7 {
		t.Fatalf("last-value rmse %g on a 0.5-step walk", rmse["last"])
	}
}

func TestNoisyMeanFavoursAveraging(t *testing.T) {
	// White noise around a constant: any averaging beats last-value.
	r := rng.New(2)
	f := New()
	for i := 0; i < 2000; i++ {
		f.Observe(3 + r.NormMS(0, 1))
	}
	rmse := rmseOf(f)
	_, best, _ := f.Forecast()
	if rmse[best] >= rmse["last"] {
		t.Fatalf("winner %s (rmse %g) not better than last (%g)", best, rmse[best], rmse["last"])
	}
	// The winner's error must approach the noise floor (stddev 1).
	if rmse[best] > 1.1 {
		t.Fatalf("winner rmse %g, noise floor is 1.0", rmse[best])
	}
}

func TestAR1SeriesFavoursAR1Model(t *testing.T) {
	// Strongly mean-reverting AR(1): x' = 0.6*x + noise.
	r := rng.New(3)
	f := New()
	x := 0.0
	for i := 0; i < 5000; i++ {
		x = 0.6*x + r.NormMS(0, 1)
		f.Observe(x + 10)
	}
	rmse := rmseOf(f)
	// AR(1) should beat both extremes: last value (overreacts) and the
	// plain mean (ignores correlation). Allow any near-optimal winner.
	_, best, _ := f.Forecast()
	if rmse[best] > rmse["ar1"]*1.05 {
		t.Fatalf("winner %s (rmse %g) much worse than ar1 (%g)", best, rmse[best], rmse["ar1"])
	}
	if rmse["ar1"] >= rmse["last"] {
		t.Fatalf("ar1 (%g) should beat last-value (%g) on an AR(1) series", rmse["ar1"], rmse["last"])
	}
}

func TestSpikeRobustnessOfMedian(t *testing.T) {
	// Mostly constant with rare large spikes: the median window shrugs
	// spikes off, the mean window does not.
	f := New()
	for i := 0; i < 500; i++ {
		v := 1.0
		if i%50 == 25 {
			v = 40
		}
		f.Observe(v)
	}
	rmse := rmseOf(f)
	if rmse["median-5"] >= rmse["mean-5"] {
		t.Fatalf("median-5 (%g) should beat mean-5 (%g) under spikes", rmse["median-5"], rmse["mean-5"])
	}
}

func TestWindowPredictorsPartialWindows(t *testing.T) {
	wm := newWindowMean(5)
	if _, ok := wm.Predict(); ok {
		t.Fatal("empty window predicted")
	}
	wm.Observe(2)
	wm.Observe(4)
	if v, ok := wm.Predict(); !ok || v != 3 {
		t.Fatalf("partial window mean %g %v", v, ok)
	}
	md := newWindowMedian(5)
	md.Observe(1)
	md.Observe(9)
	md.Observe(2)
	if v, ok := md.Predict(); !ok || v != 2 {
		t.Fatalf("partial window median %g %v", v, ok)
	}
}

func TestWindowWrapAround(t *testing.T) {
	wm := newWindowMean(3)
	for _, v := range []float64{1, 2, 3, 10, 20, 30} {
		wm.Observe(v)
	}
	if v, _ := wm.Predict(); v != 20 {
		t.Fatalf("wrapped window mean %g, want 20", v)
	}
}

func TestNewWithPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ensemble accepted")
		}
	}()
	NewWith()
}

func TestDeterministic(t *testing.T) {
	mk := func() *Forecaster {
		f := New()
		r := rng.New(9)
		for i := 0; i < 500; i++ {
			f.Observe(r.Float64() * 10)
		}
		return f
	}
	a, b := mk(), mk()
	va, ma, _ := a.Forecast()
	vb, mb, _ := b.Forecast()
	if va != vb || ma != mb {
		t.Fatalf("forecasters diverged: %g/%s vs %g/%s", va, ma, vb, mb)
	}
}
