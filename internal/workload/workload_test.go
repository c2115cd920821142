package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestValidation(t *testing.T) {
	if _, err := NewZipfian(0, 0.99, 1, false); err == nil {
		t.Error("zipf n=0 accepted")
	}
	if _, err := NewZipfian(10, 0, 1, false); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := NewZipfian(10, 1, 1, false); err == nil {
		t.Error("theta=1 accepted")
	}
}

func TestRangeInvariant(t *testing.T) {
	z, _ := NewZipfian(100, 0.99, 1, false)
	zs, _ := NewZipfian(100, 0.99, 1, true)
	for _, g := range []*Zipfian{z, zs} {
		for i := 0; i < 10000; i++ {
			k := g.Next()
			if k < 0 || k >= 100 {
				t.Fatalf("%T produced %d", g, k)
			}
		}
	}
}

// hotFraction is the share of samples draws that hit the hot most
// frequent keys.
func hotFraction(next func() int, hot, samples int) float64 {
	counts := make(map[int]int)
	for i := 0; i < samples; i++ {
		counts[next()]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	slices.Sort(freqs)
	total := 0
	for _, f := range freqs[max(0, len(freqs)-hot):] {
		total += f
	}
	return float64(total) / float64(samples)
}

func TestZipfianSkew(t *testing.T) {
	// YCSB theta 0.99 over 10k keys: the hottest 100 ranks (1%) draw a
	// large fraction of accesses; uniform draws ~1%.
	z, _ := NewZipfian(10000, 0.99, 7, false)
	zf := hotFraction(z.Next, 100, 200000)
	u := rand.New(rand.NewSource(7))
	uf := hotFraction(func() int { return u.Intn(10000) }, 100, 200000)
	if zf < 0.4 {
		t.Errorf("zipfian hot fraction = %.3f, want heavy skew", zf)
	}
	if uf > 0.05 {
		t.Errorf("uniform hot fraction = %.3f, want ~0.01", uf)
	}
	if zf < 5*uf {
		t.Errorf("zipf (%.3f) not clearly more skewed than uniform (%.3f)", zf, uf)
	}
}

func TestZipfianRankOrdering(t *testing.T) {
	// Without scrambling, lower ranks must be more popular.
	z, _ := NewZipfian(1000, 0.99, 3, false)
	counts := make([]int, 1000)
	for i := 0; i < 300000; i++ {
		counts[z.Next()]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[200]) {
		t.Errorf("rank popularity not decreasing: %d %d %d", counts[0], counts[10], counts[200])
	}
}

func TestScrambleSpreadsHotKeys(t *testing.T) {
	// Scrambled zipfian keeps the skew but moves the hot keys away from
	// the low indices.
	zs, _ := NewZipfian(10000, 0.99, 5, true)
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		counts[zs.Next()]++
	}
	hottest, hottestKey := 0, 0
	for k, c := range counts {
		if c > hottest {
			hottest, hottestKey = c, k
		}
	}
	if hottestKey == 0 {
		t.Error("hottest key still at rank 0 after scrambling")
	}
	if hottest < 1000 {
		t.Errorf("scrambling destroyed the skew (hottest = %d)", hottest)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := NewZipfian(1000, 0.9, 11, true)
	b, _ := NewZipfian(1000, 0.9, 11, true)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestZetaSanity(t *testing.T) {
	// zeta(2, theta) = 1 + 2^-theta.
	if got := zeta(2, 0.5); math.Abs(got-(1+math.Pow(2, -0.5))) > 1e-12 {
		t.Errorf("zeta(2,0.5) = %v", got)
	}
}
