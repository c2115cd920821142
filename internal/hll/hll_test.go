package hll

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("p=3 accepted")
	}
	if _, err := New(17); err == nil {
		t.Error("p=17 accepted")
	}
	s, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.regs) != 1024 || s.m != 1024 || s.p != 10 {
		t.Errorf("m=%d p=%d", s.m, s.p)
	}
}

// stdError is the sketch's theoretical standard error, 1.04/sqrt(m).
func stdError(s *Sketch) float64 { return 1.04 / math.Sqrt(float64(s.m)) }

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(0)
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	rng := rand.New(rand.NewSource(1))
	total, n := 0, 0
	for i := 0; i < 200; i++ {
		x := rng.Uint64()
		h := Hash64(x)
		bit := uint(rng.Intn(64))
		h2 := Hash64(x ^ (1 << bit))
		diff := h ^ h2
		cnt := 0
		for diff != 0 {
			cnt++
			diff &= diff - 1
		}
		total += cnt
		n++
	}
	avg := float64(total) / float64(n)
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average %v bits, want ~32", avg)
	}
}

// hashBytes hashes an arbitrary byte string by absorbing 8-byte words
// through the same mixer (an FNV-style fold, then SplitMix finalization).
func hashBytes(data []byte) uint64 {
	var h uint64 = 0xCBF29CE484222325
	i := 0
	for ; i+8 <= len(data); i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(data[i+j]) << (8 * j)
		}
		h = Hash64(h ^ w)
	}
	var tail uint64
	for j := 0; i+j < len(data); j++ {
		tail |= uint64(data[i+j]) << (8 * j)
	}
	if len(data)%8 != 0 || len(data) == 0 {
		h = Hash64(h ^ tail ^ uint64(len(data)))
	}
	return h
}

func TestHashBytesDistinguishesLengths(t *testing.T) {
	a := hashBytes([]byte{0})
	b := hashBytes([]byte{0, 0})
	c := hashBytes(nil)
	if a == b || a == c || b == c {
		t.Errorf("length-only differences collide: %x %x %x", a, b, c)
	}
}

func TestHashBytesMatchesChunking(t *testing.T) {
	// Same bytes must hash identically regardless of how callers slice
	// them beforehand (hashBytes is not streaming; this guards against
	// accidental state bleed in the implementation).
	data := []byte("the quick brown fox jumps over the lazy dog")
	h1 := hashBytes(data)
	h2 := hashBytes(append([]byte(nil), data...))
	if h1 != h2 {
		t.Error("hashBytes not deterministic")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	for _, p := range []int{8, 12, 14} {
		for _, n := range []int{100, 10_000, 1_000_000} {
			s := MustNew(p)
			rng := rand.New(rand.NewSource(int64(p*31 + n)))
			seen := make(map[uint64]bool, n)
			for len(seen) < n {
				v := rng.Uint64()
				if !seen[v] {
					seen[v] = true
					s.Add(v)
				}
			}
			est := s.Estimate()
			relErr := math.Abs(est-float64(n)) / float64(n)
			// Allow 5 standard errors.
			bound := 5 * stdError(s)
			if relErr > bound {
				t.Errorf("p=%d n=%d: estimate %.0f, rel err %.4f > %.4f", p, n, est, relErr, bound)
			}
		}
	}
}

func TestEstimateDuplicatesDoNotInflate(t *testing.T) {
	s := MustNew(12)
	for i := 0; i < 1000; i++ {
		s.Add(uint64(i % 10))
	}
	est := s.Estimate()
	if est < 5 || est > 20 {
		t.Errorf("estimate of 10 distinct = %v", est)
	}
}

func TestSmallRangeLinearCounting(t *testing.T) {
	s := MustNew(12)
	s.Add(1)
	s.Add(2)
	s.Add(3)
	est := s.Estimate()
	if math.Abs(est-3) > 0.5 {
		t.Errorf("estimate of 3 = %v", est)
	}
}

func TestEmptySketch(t *testing.T) {
	s := MustNew(10)
	if got := s.Estimate(); got != 0 {
		t.Errorf("empty estimate = %v", got)
	}
}

func TestReset(t *testing.T) {
	s := MustNew(10)
	for i := uint64(0); i < 100; i++ {
		s.Add(i)
	}
	s.Reset()
	if s.Estimate() != 0 {
		t.Error("reset sketch not empty")
	}
}

func TestAddBytesEstimate(t *testing.T) {
	s := MustNew(12)
	for i := 0; i < 20000; i++ {
		s.AddHash(hashBytes([]byte{byte(i), byte(i >> 8), 0xAB}))
	}
	est := s.Estimate()
	relErr := math.Abs(est-20000) / 20000
	if relErr > 5*stdError(s) {
		t.Errorf("byte-item estimate %v", est)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := MustNew(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := MustNew(14)
	for i := uint64(0); i < 100000; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate()
	}
}
