package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"strom/internal/stats"
)

// The experiment harness runs generators concurrently. This is safe
// because every generator is a pure function of its Options: each one
// builds a private sim.Engine (seeded from Options.Seed) and a private
// testbed on top of it, and the packages underneath share only immutable
// state (error values, CRC tables) plus the packet frame pool, whose
// buffers are fully rewritten before use. Determinism is therefore
// per-engine, and the output of a run is byte-identical at any
// parallelism level.

// Result is the outcome of one generator run.
type Result struct {
	Name    string
	Fig     *stats.Figure
	Err     error
	Elapsed time.Duration
}

// DefaultParallelism is the worker count used when the caller does not
// choose one: the number of CPUs the Go runtime will actually use.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// RunGenerators runs every generator with at most parallelism workers
// and returns the results in input order. parallelism < 1 is treated
// as 1; each generator still sees the same Options, so results do not
// depend on the worker count.
func RunGenerators(gens []Generator, o Options, parallelism int) []Result {
	results := make([]Result, len(gens))
	if parallelism > len(gens) {
		parallelism = len(gens)
	}
	if parallelism <= 1 {
		for i, g := range gens {
			results[i] = runGenerator(g, o)
		}
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runGenerator(gens[i], o)
			}
		}()
	}
	for i := range gens {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

func runGenerator(g Generator, o Options) Result {
	start := time.Now()
	fig, err := g.Run(o)
	return Result{Name: g.Name, Fig: fig, Err: err, Elapsed: time.Since(start)}
}

// tables are the static renderings Render knows beside the generators.
var tables = map[string]func() string{
	"table1":    Table1,
	"table2":    Table2,
	"table3":    Table3,
	"resources": ResourceReport,
}

// Generators lists every runnable generator: the paper figures, the
// ablations and the chaos suite.
func Generators() []Generator {
	return append(append(Figures(), Ablations()...), Chaos()...)
}

// Render is the one renderer of a suite run: it runs the named
// experiments — tables and generators, in any mix — and writes each
// one's text to w in request order, a blank line after each. An unknown
// name is rejected before anything runs, and a failed generator before
// anything is written. Generators run on up to parallelism workers; what
// is written is a pure function of (names, o), which is what the goldens
// under testdata/ pin byte for byte. The generators' results come back
// in request order for callers that want timings or CSV.
func Render(w io.Writer, names []string, o Options, parallelism int) ([]Result, error) {
	byName := make(map[string]Generator)
	for _, g := range Generators() {
		byName[g.Name] = g
	}
	var gens []Generator
	for _, name := range names {
		if _, ok := tables[name]; ok {
			continue
		}
		g, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", name)
		}
		gens = append(gens, g)
	}
	results := RunGenerators(gens, o, parallelism)
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	next := 0
	for _, name := range names {
		var text string
		if table, ok := tables[name]; ok {
			text = table()
		} else {
			text = results[next].Fig.String()
			next++
		}
		if _, err := fmt.Fprintln(w, text); err != nil {
			return nil, err
		}
	}
	return results, nil
}
