package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
	// Split must be deterministic given parent state.
	p2 := New(7)
	d1 := p2.Split()
	if c1.Uint64() != d1.Uint64() {
		// c1 already consumed one draw; align d1.
		d1.Uint64()
	}
	p3 := New(7)
	e1 := p3.Split()
	f, g := e1.Uint64(), New(7).Split().Uint64()
	if f != g {
		t.Fatalf("Split not deterministic: %d vs %d", f, g)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(7)] = true
	}
	for v := 0; v < 7; v++ {
		if !seen[v] {
			t.Fatalf("Intn(7) never produced %d", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance %g, want ~1", variance)
	}
}

func TestNormMS(t *testing.T) {
	r := New(19)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.NormMS(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Fatalf("NormMS mean %g, want ~10", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(0.5)
		if v < 0 {
			t.Fatalf("Exp produced negative %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-2) > 0.1 {
		t.Fatalf("Exp(0.5) mean %g, want ~2", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoisson(t *testing.T) {
	r := New(29)
	if got := r.Poisson(0, 1); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1, math.E); got != 0 {
		t.Fatalf("Poisson(-1) = %d", got)
	}
	for _, mean := range []float64{0.1, 3, 50} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean, math.Exp(-mean))
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.1+0.05 {
			t.Fatalf("Poisson(%g) mean %g", mean, got)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %g", frac)
	}
}

func TestShuffle(t *testing.T) {
	r := New(41)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), vals...)
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	origSum := 0
	for _, v := range orig {
		origSum += v
	}
	if sum != origSum {
		t.Fatal("Shuffle lost elements")
	}
}

func TestRange(t *testing.T) {
	r := New(43)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Range out of bounds: %g", v)
		}
	}
}

func TestPickWeighted(t *testing.T) {
	r := New(47)
	counts := [3]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Pick([]float64{1, 2, 3})]++
	}
	// Expect roughly 1/6, 2/6, 3/6.
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("Pick index %d frequency %g, want ~%g", i, got, want)
		}
	}
}

func TestPickPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"zero":     {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Pick(%s) did not panic", name)
				}
			}()
			New(1).Pick(weights)
		}()
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

// momentCheck draws n samples and verifies mean and variance against the
// analytic values within relative tolerance tol.
func momentCheck(t *testing.T, name string, draw func() float64, n int, wantMean, wantVar, tol float64) {
	t.Helper()
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := draw()
		if v < 0 {
			t.Fatalf("%s produced negative sample %g", name, v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-wantMean)/wantMean > tol {
		t.Fatalf("%s mean %g, want ~%g", name, mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 3*tol {
		t.Fatalf("%s variance %g, want ~%g", name, variance, wantVar)
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(k, theta): mean k*theta, variance k*theta^2. Cover the
	// shape<1 boost branch, the exponential boundary, and a peaked shape.
	for _, c := range []struct{ shape, scale float64 }{{0.5, 2}, {1, 3}, {4, 0.5}, {9, 10}} {
		r := New(29)
		momentCheck(t, fmt.Sprintf("Gamma(%g,%g)", c.shape, c.scale),
			func() float64 { return r.Gamma(c.shape, c.scale) },
			200000, c.shape*c.scale, c.shape*c.scale*c.scale, 0.03)
	}
}

func TestWeibullMoments(t *testing.T) {
	// Weibull(k, lambda): mean lambda*Gamma(1+1/k),
	// variance lambda^2*(Gamma(1+2/k)-Gamma(1+1/k)^2).
	for _, c := range []struct{ shape, scale float64 }{{0.8, 5}, {1, 2}, {2.5, 100}} {
		r := New(31)
		g1 := math.Gamma(1 + 1/c.shape)
		g2 := math.Gamma(1 + 2/c.shape)
		momentCheck(t, fmt.Sprintf("Weibull(%g,%g)", c.shape, c.scale),
			func() float64 { return r.Weibull(c.shape, c.scale) },
			200000, c.scale*g1, c.scale*c.scale*(g2-g1*g1), 0.03)
	}
}

func TestLogNormalMoments(t *testing.T) {
	// LogNormal(mu, sigma): mean exp(mu+sigma^2/2),
	// variance (exp(sigma^2)-1)*exp(2mu+sigma^2).
	mu, sigma := 1.0, 0.5
	r := New(37)
	m := math.Exp(mu + sigma*sigma/2)
	v := (math.Exp(sigma*sigma) - 1) * math.Exp(2*mu+sigma*sigma)
	momentCheck(t, "LogNormal(1,0.5)", func() float64 { return r.LogNormal(mu, sigma) }, 200000, m, v, 0.03)
}

func TestGammaPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0, 1) did not panic")
		}
	}()
	New(1).Gamma(0, 1)
}
