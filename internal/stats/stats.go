// Package stats provides the small statistics toolkit used by the
// benchmark harness: latency samples with percentiles (the paper reports
// medians with 1st/99th-percentile whiskers), throughput accumulators,
// and labelled series for rendering figures as text.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates scalar observations.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.vals))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.sort()
	if n == 1 {
		return s.vals[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// P1 returns the 1st percentile (lower whisker in the paper's plots).
func (s *Sample) P1() float64 { return s.Percentile(1) }

// P99 returns the 99th percentile (upper whisker in the paper's plots).
func (s *Sample) P99() float64 { return s.Percentile(99) }

// Summary is a compact snapshot of a sample.
type Summary struct {
	N                 int
	Mean, Median      float64
	P1, P99, Min, Max float64
}

// Summarize captures the sample's summary statistics.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		Median: s.Median(),
		P1:     s.P1(),
		P99:    s.P99(),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// Point is one (x, y) measurement in a series, optionally with whiskers.
type Point struct {
	X        float64
	XLabel   string
	Y        float64
	Lo, Hi   float64 // e.g. 1st/99th percentile; 0,0 when unused
	HasBands bool
}

// Series is a named sequence of points, one line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a plain point.
func (s *Series) Add(x float64, label string, y float64) {
	s.Points = append(s.Points, Point{X: x, XLabel: label, Y: y})
}

// AddBands appends a point with lo/hi whiskers.
func (s *Series) AddBands(x float64, label string, y, lo, hi float64) {
	s.Points = append(s.Points, Point{X: x, XLabel: label, Y: y, Lo: lo, Hi: hi, HasBands: true})
}

// Figure is a set of series sharing an x axis; it renders as a text table
// in the same row/column layout as the paper's plots.
type Figure struct {
	Title  string
	XName  string
	YName  string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xName, yName string) *Figure {
	return &Figure{Title: title, XName: xName, YName: yName}
}

// NewSeries adds an empty named series to the figure and returns it.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Lookup returns the y value of the named series at the given x label.
func (f *Figure) Lookup(series, xLabel string) (float64, bool) {
	for _, s := range f.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.XLabel == xLabel {
				return p.Y, true
			}
		}
	}
	return 0, false
}

// String renders the figure as an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	// Collect the union of x labels in first-seen order.
	var labels []string
	seen := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.XLabel] {
				seen[p.XLabel] = true
				labels = append(labels, p.XLabel)
			}
		}
	}
	// Header.
	fmt.Fprintf(&b, "%-14s", f.XName)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	fmt.Fprintf(&b, "   [%s]\n", f.YName)
	// Rows.
	for _, lab := range labels {
		fmt.Fprintf(&b, "%-14s", lab)
		for _, s := range f.Series {
			var cell string
			for _, p := range s.Points {
				if p.XLabel == lab {
					if p.HasBands {
						cell = fmt.Sprintf("%.2f [%.2f,%.2f]", p.Y, p.Lo, p.Hi)
					} else {
						cell = fmt.Sprintf("%.2f", p.Y)
					}
					break
				}
			}
			if cell == "" {
				cell = "-"
			}
			fmt.Fprintf(&b, " %22s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values: a header row with
// the x-axis name and the series names (lo/hi columns for banded
// series), then one row per x label — ready for any plotting tool.
func (f *Figure) CSV() string {
	var b strings.Builder
	// Header.
	b.WriteString(csvEscape(f.XName))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
		if seriesHasBands(s) {
			fmt.Fprintf(&b, ",%s,%s", csvEscape(s.Name+" p1"), csvEscape(s.Name+" p99"))
		}
	}
	b.WriteByte('\n')
	// Rows, in first-seen x order.
	var labels []string
	seen := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.XLabel] {
				seen[p.XLabel] = true
				labels = append(labels, p.XLabel)
			}
		}
	}
	for _, lab := range labels {
		b.WriteString(csvEscape(lab))
		for _, s := range f.Series {
			found := false
			for _, p := range s.Points {
				if p.XLabel == lab {
					fmt.Fprintf(&b, ",%g", p.Y)
					if seriesHasBands(s) {
						fmt.Fprintf(&b, ",%g,%g", p.Lo, p.Hi)
					}
					found = true
					break
				}
			}
			if !found {
				b.WriteByte(',')
				if seriesHasBands(s) {
					b.WriteString(",,")
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func seriesHasBands(s *Series) bool {
	for _, p := range s.Points {
		if p.HasBands {
			return true
		}
	}
	return false
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
