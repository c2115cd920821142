// Package hll implements the HyperLogLog cardinality sketch [Flajolet et
// al. 2007] used by the StRoM HLL kernel (§7.2) and by the CPU baseline
// (Fig. 13a). The sketch is written from scratch: a 64-bit mixing hash,
// 2^p registers of leading-zero ranks, and the standard bias-corrected
// estimator with linear counting for the small range.
//
// Sub-linear space is the whole point: the FPGA kernel keeps the register
// file in on-chip memory and updates one register per incoming data word,
// which is why it runs at line rate (initiation interval 1).
package hll

import (
	"fmt"
	"math"
	"math/bits"
)

// MinPrecision and MaxPrecision bound the register-count exponent p.
const (
	MinPrecision = 4
	MaxPrecision = 16
)

// Hash64 mixes a 64-bit value into a well-distributed 64-bit hash. It is
// the finalizer of SplitMix64, which passes the usual avalanche tests and
// maps to a handful of pipeline stages in hardware.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Sketch is a HyperLogLog estimator with m = 2^p registers.
type Sketch struct {
	p    uint8
	m    uint32
	regs []uint8
}

// New returns an empty sketch with 2^p registers.
func New(p int) (*Sketch, error) {
	if p < MinPrecision || p > MaxPrecision {
		return nil, fmt.Errorf("hll: precision %d out of range [%d,%d]", p, MinPrecision, MaxPrecision)
	}
	m := uint32(1) << p
	return &Sketch{p: uint8(p), m: m, regs: make([]uint8, m)}, nil
}

// MustNew is New for known-good precisions.
func MustNew(p int) *Sketch {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// AddHash inserts a pre-hashed value. The top p bits select the register;
// the rank is the position of the first 1 bit in the remainder.
func (s *Sketch) AddHash(h uint64) {
	idx := h >> (64 - s.p)
	rest := h<<s.p | 1<<(uint(s.p)-1) // guarantee termination like the reference algorithm
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > s.regs[idx] {
		s.regs[idx] = rank
	}
}

// Add inserts a 64-bit item.
func (s *Sketch) Add(x uint64) { s.AddHash(Hash64(x)) }

// alpha returns the bias-correction constant for m registers.
func alpha(m uint32) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Estimate returns the estimated cardinality.
func (s *Sketch) Estimate() float64 {
	m := float64(s.m)
	var sum float64
	var zeros int
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha(s.m) * m * m / sum
	// Small-range correction: linear counting.
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	// Large-range correction for 32-bit hash spaces is unnecessary with
	// 64-bit hashes; return the raw estimate.
	return e
}

// Reset clears all registers.
func (s *Sketch) Reset() {
	for i := range s.regs {
		s.regs[i] = 0
	}
}
