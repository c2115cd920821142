package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Sum() != 15 {
		t.Errorf("Sum = %v", s.Sum())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Errorf("Median = %v", s.Median())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(20)
	if got := s.Percentile(50); got != 15 {
		t.Errorf("p50 of {10,20} = %v", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 20 {
		t.Errorf("p100 = %v", got)
	}
	single := Sample{}
	single.Add(7)
	if got := single.Percentile(99); got != 7 {
		t.Errorf("p99 of single = %v", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		if len(vals) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		q := s.Percentile(pp)
		return q >= s.Min() && q <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestSummaryOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64() * 100)
	}
	sum := s.Summarize()
	if math.Abs(sum.Median-50) > 1 {
		t.Errorf("median of U(0,100) = %v", sum.Median)
	}
	if math.Abs(sum.P1-1) > 0.5 || math.Abs(sum.P99-99) > 0.5 {
		t.Errorf("p1/p99 = %v/%v", sum.P1, sum.P99)
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Fig X", "payload", "latency us")
	a := f.NewSeries("write")
	a.AddBands(64, "64B", 2.0, 1.8, 2.3)
	a.AddBands(128, "128B", 2.2, 2.0, 2.5)
	b := f.NewSeries("read")
	b.AddBands(64, "64B", 3.1, 2.9, 3.4)
	out := f.String()
	for _, want := range []string{"Fig X", "write", "read", "64B", "128B", "2.00 [1.80,2.30]"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
	// read has no 128B point; cell renders as "-".
	if !strings.Contains(out, "-") {
		t.Error("missing cell should render as -")
	}
}

func TestFigureLookup(t *testing.T) {
	f := NewFigure("t", "x", "y")
	s := f.NewSeries("s")
	s.Add(1, "one", 1.5)
	if v, ok := f.Lookup("s", "one"); !ok || v != 1.5 {
		t.Errorf("Lookup = %v, %v", v, ok)
	}
	if _, ok := f.Lookup("s", "two"); ok {
		t.Error("Lookup of missing label succeeded")
	}
	if _, ok := f.Lookup("missing", "one"); ok {
		t.Error("Lookup of missing series succeeded")
	}
}

func TestFigureCSV(t *testing.T) {
	f := NewFigure("t", "payload", "us")
	a := f.NewSeries("write")
	a.AddBands(64, "64B", 2.0, 1.8, 2.3)
	b := f.NewSeries("plain,series")
	b.Add(64, "64B", 5)
	b.Add(128, "128B", 6)
	out := f.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != `payload,write,write p1,write p99,"plain,series"` {
		t.Errorf("header = %s", lines[0])
	}
	if lines[1] != "64B,2,1.8,2.3,5" {
		t.Errorf("row = %s", lines[1])
	}
	// write has no 128B point: empty cells including bands.
	if lines[2] != "128B,,,,6" {
		t.Errorf("row = %s", lines[2])
	}
}
