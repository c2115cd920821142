package sim

import (
	"errors"
	"math"
	"math/rand"
)

// ErrDeadlineExceeded reports that an operation was abandoned because its
// sim-time deadline passed before it completed. Every layer's deadline
// mechanism (roce verb deadlines, NIC sync wrappers, cpu poll timeouts)
// wraps this sentinel, so one errors.Is check covers them all.
var ErrDeadlineExceeded = errors.New("sim: deadline exceeded")

// Backoff is an exponential-backoff policy for application-level retries:
// attempt k waits Base*Factor^k, capped at Max, with a uniformly random
// jitter fraction taken from the supplied RNG. Drawing jitter from the
// engine RNG keeps retry schedules a pure function of the seed, so chaos
// runs with recovery loops replay identically.
type Backoff struct {
	// Base is the first delay. Zero or negative selects 1 ms.
	Base Duration
	// Max caps the grown delay; zero means uncapped.
	Max Duration
	// Factor is the per-attempt growth; values <= 1 select 2.
	Factor float64
	// Jitter in [0,1] randomizes that fraction of the delay: the wait
	// becomes d*(1-Jitter) + d*Jitter*U[0,1). Zero disables jitter.
	Jitter float64
}

// maxDelay caps every delay, Max or not: Base*Factor^k outgrows a
// Duration within a few dozen attempts, and the wait must still fit one
// once added to the clock.
const maxDelay = Duration(math.MaxInt64 / 2)

// Delay returns the pause before retry attempt k (0-based). A nil rng
// disables jitter.
func (b Backoff) Delay(attempt int, rng *rand.Rand) Duration {
	base := b.Base
	if base <= 0 {
		base = Millisecond
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	if attempt < 0 {
		attempt = 0
	}
	limit := maxDelay
	if b.Max > 0 && b.Max < limit {
		limit = b.Max
	}
	d := min(float64(base)*math.Pow(factor, float64(attempt)), float64(limit))
	if b.Jitter > 0 && rng != nil {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d = d * (1 - j + j*rng.Float64())
	}
	if d < 1 {
		d = 1
	}
	return Duration(d)
}
