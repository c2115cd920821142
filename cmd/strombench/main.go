// Command strombench regenerates the tables and figures of the StRoM
// paper's evaluation on the simulated testbed.
//
// Usage:
//
//	strombench -list
//	strombench [-quick|-full] [-scenario NAME] [-seed N] [-j N] [-csv DIR]
//	           [-metrics FILE] [-trace FILE] [-jsonl FILE]
//	           [-cpuprofile FILE] [-memprofile FILE] [exp ...]
//
// Experiment names are table1, table2, table3, resources, fig5a...fig13b,
// abl-*, and chaos-*. -scenario picks one entry of the scenario registry
// (experiments.Scenarios; README.md "Scenarios" tabulates topology,
// faults, sweep and alert contract of each):
//
//	clean    (default) the paper's two-machine test bed; sweeps every
//	         table, figure and ablation in paper order
//	chaos    the fault-injection suite: loss, flap, recovery, protection,
//	         incast and KV sweeps with the invariant checker attached
//	incast   4→1 storm through the PFC/ECN switch, DCQCN enabled mid-run
//	kv       replicated KV under loss, crash cycles, incast blast and rogue
//	kvlarge  large-value KV under a racing overwriter, loss and crash cycles
//
// With no experiment names the scenario's sweep runs; -metrics, -trace
// and -jsonl export the scenario's own instrumented run — on its own
// testbed seeded from -seed, so every file is byte-identical at every -j
// value — and the -jsonl stream is then gated against the
// scenario's alert contract: a required alert that stayed silent, or one
// outside the allowlist that fired, fails the run. Chaos runs are driven
// entirely off the engine RNG, so re-running with the same -seed replays
// the identical fault schedule. Load the trace file in ui.perfetto.dev
// or chrome://tracing; pipe the JSONL file through stromtail for a
// rollup and the alert timeline.
//
// Figure generators are independent simulations, so -j runs them on a
// worker pool. Results are printed in request order and each generator
// is a pure function of (options, seed), so stdout is byte-identical at
// every -j value; per-experiment timing goes to stderr. That stdout is
// the committed record of the figures: internal/experiments/testdata/
// holds it for the default and the -quick run, a test compares byte for
// byte, and `make golden` is the only way to move it.
//
// Each testbed is one simulation on one goroutine (a two-machine testbed
// runs its machines as two event-engine shards under conservative
// lookahead, in turn); -j is the only parallelism.
//
// -cpuprofile/-memprofile write pprof profiles of the whole run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"strom/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts (smoke test)")
	full := flag.Bool("full", false, "paper-scale inputs (Fig. 11 runs the real 128-1024 MB)")
	var scenarios []string
	for _, s := range experiments.Scenarios() {
		scenarios = append(scenarios, s.Name)
	}
	scenarioName := flag.String("scenario", scenarios[0], "one of "+strings.Join(scenarios, ", ")+": the sweep run when no experiment is named, and the run -metrics/-trace/-jsonl export")
	seed := flag.Int64("seed", 1, "simulation seed")
	jobs := flag.Int("j", experiments.DefaultParallelism(), "experiment generators to run in parallel")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also write each figure as CSV into this directory")
	metricsOut := flag.String("metrics", "", "write the scenario's metrics JSON to this file")
	traceOut := flag.String("trace", "", "write the scenario's Perfetto trace JSON to this file")
	jsonlOut := flag.String("jsonl", "", "stream the scenario's telemetry (health scrapes, alerts) as JSON Lines to this file, then gate it on the scenario's alert contract")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	flag.Parse()

	sc, names, err := resolve(*scenarioName, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "strombench:", err)
		os.Exit(1)
	}

	// Registered first so it runs last: the profile writers below must
	// flush before the process exits on a failure.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "strombench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "strombench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "strombench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "strombench:", err)
			}
		}()
	}

	if *list {
		fmt.Println("table1 table2 table3 resources")
		for _, g := range experiments.Generators() {
			fmt.Println(g.Name)
		}
		return
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *full {
		opts.ShuffleScale = 1
	}
	opts.Seed = *seed

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "strombench:", err)
		exitCode = 1
	}
	if err := run(os.Stdout, names, opts, *jobs, *csvDir); err != nil {
		fail(err)
		return
	}
	if err := export(sc, opts, *metricsOut, *traceOut, *jsonlOut); err != nil {
		fail(err)
	}
}

// resolve maps -scenario and the positional arguments to the scenario
// and the experiments to run: the named ones, or the scenario's sweep.
func resolve(scenario string, args []string) (experiments.Scenario, []string, error) {
	sc, err := experiments.ScenarioByName(scenario)
	if err != nil {
		return sc, nil, err
	}
	if len(args) == 0 {
		args = sc.Sweep
	}
	return sc, args, nil
}

// export runs the scenario's instrumented run once, writes the requested
// files and, when a JSONL stream was one of them, gates what was written
// against the scenario's alert contract. A no-op when no export flag was
// given.
func export(sc experiments.Scenario, opts experiments.Options, metricsPath, tracePath, jsonlPath string) error {
	if metricsPath == "" && tracePath == "" && jsonlPath == "" {
		return nil
	}
	var files []*os.File
	var err error
	open := func(path string) io.Writer {
		if path == "" || err != nil {
			return nil
		}
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return nil
		}
		files = append(files, f)
		return f
	}
	ex := experiments.Exports{Metrics: open(metricsPath), Trace: open(tracePath), JSONL: open(jsonlPath)}
	if err == nil {
		err = sc.Export(opts, ex)
	}
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil || jsonlPath == "" {
		return err
	}
	stream, err := os.Open(jsonlPath)
	if err != nil {
		return err
	}
	defer stream.Close()
	return sc.GateStream(stream)
}

// run renders the named experiments to stdout and adds what is the
// binary's own: per-generator timing on stderr and, with csvDir set, one
// CSV per figure. csvDir is created before anything runs, so a path that
// cannot hold the files fails in milliseconds, not after the sweep.
func run(stdout io.Writer, names []string, opts experiments.Options, jobs int, csvDir string) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
	}
	results, err := experiments.Render(stdout, names, opts, jobs)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "(%s generated in %v)\n", r.Name, r.Elapsed.Round(time.Millisecond))
		if csvDir != "" {
			path := filepath.Join(csvDir, r.Name+".csv")
			if err := os.WriteFile(path, []byte(r.Fig.CSV()), 0o644); err != nil {
				return fmt.Errorf("%s: writing CSV: %w", r.Name, err)
			}
		}
	}
	return nil
}
