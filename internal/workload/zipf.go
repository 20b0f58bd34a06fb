// Package workload generates the paper's synthetic query workload
// (Sec. 6.1): |W| websites of 500 requestable objects each, Zipf-like
// object popularity within a site (Breslau et al. [2]), a per-peer
// query process of one query every 6 minutes on average, restricted to
// a small set of "active" websites, plus the origin web servers that
// serve misses.
package workload

import (
	"fmt"
	"math"
	"sort"

	"flowercdn/internal/rnd"
)

// Zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^alpha. Breslau et al. report web request streams follow a
// Zipf-like distribution with alpha around 0.6–0.9; the paper's Table 1
// applies "Zipf distribution for object requests". Draws use a
// precomputed CDF and binary search, which is exact and fast for the
// 500-object catalogs used here.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the distribution. n must be positive; alpha may be 0
// (uniform) or positive.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: zipf over %d ranks", n)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("workload: negative zipf exponent %g", alpha)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1.0 // guard against rounding
	return &Zipf{cdf: cdf}, nil
}

// Rank draws a rank in [0, n).
func (z *Zipf) Rank(rng *rnd.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
