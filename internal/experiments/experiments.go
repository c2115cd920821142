// Package experiments regenerates every table and figure of the paper's
// evaluation (§6, §7) on the simulated testbed: two StRoM machines
// connected by a direct cable. Each generator returns a stats.Figure
// whose rows/series mirror the paper's plot, so the harness (cmd/
// strombench and the root bench_test.go) can print paper-vs-measured
// comparisons.
package experiments

import (
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// Options tunes experiment size.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// Iterations per latency point (whiskers need a population).
	Iterations int
	// ShuffleScale divides Fig. 11's input sizes (the paper uses
	// 128–1024 MB; 8 simulates 16–128 MB, preserving all ratios).
	ShuffleScale int
	// StreamBytes is the per-point volume for throughput sweeps.
	StreamBytes int
}

// Default returns the options used by the committed EXPERIMENTS.md run.
func Default() Options {
	return Options{Seed: 1, Iterations: 25, ShuffleScale: 8, StreamBytes: 24 << 20}
}

// Quick returns reduced options for smoke tests.
func Quick() Options {
	return Options{Seed: 1, Iterations: 6, ShuffleScale: 64, StreamBytes: 4 << 20}
}

func (o Options) normalized() Options {
	d := Default()
	if o.Iterations <= 0 {
		o.Iterations = d.Iterations
	}
	if o.ShuffleScale <= 0 {
		o.ShuffleScale = d.ShuffleScale
	}
	if o.StreamBytes <= 0 {
		o.StreamBytes = d.StreamBytes
	}
	return o
}

// profile bundles the per-generation testbed parameters.
type profile struct {
	name string
	cfg  core.Config
	link fabric.LinkConfig
}

func profile10G() profile {
	return profile{name: "10G", cfg: core.Profile10G(), link: fabric.DirectCable10G()}
}

func profile100G() profile {
	return profile{name: "100G", cfg: core.Profile100G(), link: fabric.DirectCable100G()}
}

// newPair builds a testbed for the profile.
func newPair(o Options, p profile, bufBytes int) (*testrig.Pair, error) {
	return testrig.New(o.Seed, p.cfg, p.link, bufBytes)
}

// sweep runs every point and plots the named columns of table, point i
// at the x and under the label at(i, point) returns. A failed point fails
// the sweep.
func sweep[P, M any](title, xName string, points []P, at func(int, P) (float64, string),
	columns []string, table map[string]func(M) float64, run func(P) (M, error)) (*stats.Figure, error) {
	fig := stats.NewFigure(title, xName, "see series")
	series := make([]*stats.Series, len(columns))
	for si, name := range columns {
		series[si] = fig.NewSeries(name)
	}
	for i, p := range points {
		x, label := at(i, p)
		m, err := run(p)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", xName, label, err)
		}
		for si, name := range columns {
			series[si].Add(x, label, table[name](m))
		}
	}
	return fig, nil
}

// bandsFigure plots the paper's latency shape: run measures point x as
// one sample per named series, drawn as its median with 1st/99th
// percentile whiskers at label(x). A failed point fails the figure.
func bandsFigure(title, xName string, xs []int, label func(int) string, names []string,
	run func(int) ([]*stats.Sample, error)) (*stats.Figure, error) {
	fig := stats.NewFigure(title, xName, "latency us (median [p1,p99])")
	series := make([]*stats.Series, len(names))
	for i, name := range names {
		series[i] = fig.NewSeries(name)
	}
	for _, x := range xs {
		samples, err := run(x)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", xName, label(x), err)
		}
		for i, s := range samples {
			series[i].AddBands(float64(x), label(x), s.Median(), s.P1(), s.P99())
		}
	}
	return fig, nil
}

// runClient runs a as a process on machine A and, unless b is nil, b as
// one on machine B, then runs the testbed dry. It returns a's error, else
// b's; a process that never returned stalled, which is an error too,
// reported after any error a process did return.
func runClient(pair *testrig.Pair, a, b func(*sim.Process) error) error {
	var errA, errB error
	procA := pair.Eng.Go("client", func(p *sim.Process) { errA = a(p) })
	var procB *sim.Process
	if b != nil {
		procB = pair.EngB.Go("server", func(p *sim.Process) { errB = b(p) })
	}
	pair.Run()
	switch {
	case errA != nil:
		return errA
	case errB != nil:
		return errB
	case !procA.Done():
		return errors.New("process on machine A stalled")
	case procB != nil && !procB.Done():
		return errors.New("process on machine B stalled")
	}
	return nil
}

// sizeLabel formats a byte count like the paper's axes.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
