// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic component in the reproduction (background load, network
// jitter, policy randomness) owns its own generator seeded from a parent
// via Split, so experiments are bit-reproducible regardless of goroutine
// scheduling and of how many draws unrelated components make.
package rng

import "math"

// splitmix64 advances the given state and returns the next 64-bit output.
// It is used both as a stand-alone generator for seeding and as the
// state-scrambler recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; give each goroutine its own generator via Split.
type Rand struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller transform
	gaussReady bool
	gauss      float64
}

// New returns a generator seeded from seed. Distinct seeds produce
// uncorrelated streams (seed is expanded through SplitMix64).
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent generator from r. The child stream is a
// deterministic function of r's current state, and r is advanced, so
// successive Split calls yield distinct children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method (unbiased).
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *Rand) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate (Box-Muller).
func (r *Rand) Norm() float64 {
	if r.gaussReady {
		r.gaussReady = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.gaussReady = true
	return u * f
}

// NormMS returns a normal variate with the given mean and standard deviation.
func (r *Rand) NormMS(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -math.Log(1-r.Float64()) / rate
}

// Poisson returns a Poisson variate with the given mean (Knuth's method for
// small means, normal approximation for large means). l is math.Exp(-mean),
// Knuth's bound, which a caller drawing many variates at one mean takes
// once.
func (r *Rand) Poisson(mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := r.NormMS(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Gamma returns a gamma variate with the given shape k and scale theta
// (mean k*theta, CV 1/sqrt(k)) using Marsaglia and Tsang's squeeze
// method, with the standard U^(1/k) boost for shape < 1. It panics if
// shape <= 0 or scale <= 0.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive shape or scale")
	}
	boost := 1.0
	if shape < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k); 1-Float64 is in (0,1].
		boost = math.Pow(1-r.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - r.Float64() // (0,1]: Log below never sees zero
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * scale
		}
	}
}

// Weibull returns a Weibull variate with the given shape k and scale
// lambda (mean lambda*Gamma(1+1/k)) by inverse-transform sampling. It
// panics if shape <= 0 or scale <= 0.
func (r *Rand) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive shape or scale")
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return scale * math.Pow(-math.Log(1-r.Float64()), 1/shape)
}

// LogNormal returns exp(N(mu, sigma)): a log-normal variate with log-mean
// mu and log-stddev sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormMS(mu, sigma))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Shuffle randomly reorders the first n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen index weighted by weights. Weights must
// be non-negative and not all zero; otherwise Pick panics.
func (r *Rand) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
