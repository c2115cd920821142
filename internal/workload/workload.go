// Package workload generates the key access pattern that drives the
// KV-store experiments: zipfian, the YCSB skew used by the key-value-store
// systems the paper compares against (Pilaf, FaRM, HERD). The generator
// is the standard Gray et al. rejection-free construction, deterministic
// per seed.
package workload

import (
	"errors"
	"math"
	"math/rand"
)

// Zipfian skews accesses toward low indices with parameter theta
// (YCSB's default 0.99). Callers typically scatter the rank onto the
// key space with a hash so the hot keys are not physically adjacent.
type Zipfian struct {
	n         int
	theta     float64
	alpha     float64
	zetan     float64
	eta       float64
	zeta2     float64
	rng       *rand.Rand
	scrambled bool
}

// NewZipfian creates a zipfian generator over n keys with skew theta in
// (0,1). scrambled applies the YCSB "scrambled zipfian" hash so hot keys
// spread over the space.
func NewZipfian(n int, theta float64, seed int64, scrambled bool) (*Zipfian, error) {
	if n <= 0 {
		return nil, errors.New("workload: need a positive key space")
	}
	if theta <= 0 || theta >= 1 {
		return nil, errors.New("workload: theta must be in (0,1)")
	}
	z := &Zipfian{n: n, theta: theta, rng: rand.New(rand.NewSource(seed)), scrambled: scrambled}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z, nil
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next key index in [0, n) (Gray et al., "Quickly generating
// billion-record synthetic databases").
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	if !z.scrambled {
		return rank
	}
	// Multiplicative scramble onto the key space (rank+1 so rank 0 does
	// not map to key 0).
	h := (uint64(rank) + 1) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return int(h % uint64(z.n))
}
