// Package rnd is the deterministic randomness spine of the simulator:
// a splittable PCG-backed RNG where every subsystem draws from its own
// named stream derived from the run's master seed. Splitting by name
// (rng.Split("churn"), rng.Split("workload")) isolates consumption —
// adding draws to one subsystem never perturbs another's sequence — so
// run fingerprints stay stable as the codebase grows and a single seed
// reproduces an entire population across backends and process counts.
package rnd

import (
	"math"
	"math/rand/v2"
)

// RNG is the deterministic random source used throughout a simulation.
// Every subsystem receives its own RNG split from the run's master seed
// so that adding randomness consumption to one subsystem does not
// perturb the draws seen by another (which would otherwise make
// before/after comparisons noisy).
//
// The source and the generator over it live inside the RNG, so New and
// Split cost one allocation each. An RNG must not be copied by value:
// the copy's generator would still draw from the original's source.
type RNG struct {
	src rand.PCG
	r   rand.Rand
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	g := &RNG{}
	g.src.Seed(seed, seed^0x9e3779b97f4a7c15)
	g.r = *rand.New(&g.src)
	return g
}

// Split derives an independent generator from this one, labelled by tag.
// Two Splits with different tags from the same parent produce
// uncorrelated streams; the same tag always produces the same stream.
func (g *RNG) Split(tag string) *RNG {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	// Mix the parent stream in once so different master seeds diverge.
	return New(h ^ g.r.Uint64())
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// Int63n returns a uniform int64 draw in [0, n). It panics if n <= 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int64N(n) }

// Uint64 returns a uniform 64-bit draw.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Uniform returns a uniform draw in [lo, hi). If hi <= lo it returns lo.
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// UniformDuration returns a uniform simulated duration in [lo, hi) ms.
func (g *RNG) UniformDuration(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Int64N(hi-lo)
}

// Exp returns an exponential draw with the given mean (not rate). Used
// for peer uptimes and Poisson inter-arrival times. Mean must be
// positive.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// ExpDuration returns an exponential simulated duration with the given
// mean in milliseconds, always at least 1 ms so zero-length lifetimes
// cannot occur.
func (g *RNG) ExpDuration(mean int64) int64 {
	d := int64(math.Round(g.Exp(float64(mean))))
	if d < 1 {
		d = 1
	}
	return d
}

// Norm returns a normal draw with the given mean and standard deviation.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return g.r.NormFloat64()*stddev + mean
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Pick returns a uniformly random index into a slice of length n, or -1
// if n == 0.
func (g *RNG) Pick(n int) int {
	if n == 0 {
		return -1
	}
	return g.r.IntN(n)
}
