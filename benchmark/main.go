// Command benchmark is the repository's two-clock benchmark: it replays
// seeded, pre-generated op lists against freshly built testbeds and
// prints host-clock metrics (what the simulator costs) and
// simulated-clock metrics (what the modelled NIC delivers) by name.
//
//	go run ./benchmark -workload NAME -seed N [-trace] [-out FILE]
//	go run ./benchmark -compare A.json B.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runSeconds is how long a run measures. BENCHMARK.json repeats it as
// run_seconds and the driver passes it back as -seconds; a run of another
// length is recorded as such and -compare refuses to mix lengths.
const runSeconds = 18

// environment is recorded with every result.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Rounds     int     `json:"rounds_timed"`
	OpsRound   int     `json:"ops_per_round"`
	P50Rate    float64 `json:"round_rate_p50_ops_per_s"`
	P90Rate    float64 `json:"round_rate_p90_ops_per_s"`
	ReadOps    int     `json:"sim_read_samples"`
	WriteOps   int     `json:"sim_write_samples"`
	ReadP50    float64 `json:"sim_read_p50_us"`
	ReadP99    float64 `json:"sim_read_p99_us"`
	WriteP50   float64 `json:"sim_write_p50_us"`
	WriteP99   float64 `json:"sim_write_p99_us"`
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out appends and -compare reads: the result with the
// environment it was measured in.
type record struct {
	Env    environment `json:"env"`
	Result result      `json:"result"`
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
		}
		return ref
	}
	return "unknown"
}

func withUnits(values map[string]float64, specs []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "how long the run measures; the driver passes BENCHMARK.json's run_seconds")
	trace := fs.Bool("trace", false, "the traced run, printing per-layer metrics, in place of the end-to-end run")
	out := fs.String("out", "", "append the result and its environment to this file as one JSON line")
	outDir := fs.String("outdir", "benchmark/out", "where the traced run writes its span file and the program's trace export")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	env := environment{
		Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: gitCommit(),
	}
	if err := checkClients(w, env.NProc); err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1}

	var res result
	if env.Trace {
		tr, err := runTraced(w, cfg, &env, *outDir)
		if err != nil {
			return err
		}
		res = result{Correct: true, Attempted: tr.attempted, Failed: tr.failed, Metrics: withUnits(tr.metrics, perLayer)}
	} else {
		er, err := runEndToEnd(w, cfg)
		if err != nil {
			return err
		}
		env.Rounds, env.OpsRound = er.rounds, er.opsRound
		env.P50Rate, env.P90Rate = er.p50Rate, er.p90Rate
		env.ReadOps, env.WriteOps = er.sim.reads, er.sim.writes
		env.ReadP50, env.ReadP99 = er.sim.readP50, er.sim.readP99
		env.WriteP50, env.WriteP99 = er.sim.writeP50, er.sim.writeP99
		res = result{Correct: true, Attempted: er.attempted, Failed: er.failed, Metrics: withUnits(er.metrics, endToEnd)}
	}
	if *out != "" {
		if err := appendRecord(*out, record{Env: env, Result: res}); err != nil {
			return err
		}
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", envLine, resLine)
	return nil
}

// joinTraceValue rewrites "-trace V" as "-trace=V" where V reads as a
// boolean: -trace is a boolean flag, which the flag package gives a value
// only after "=", and the driver passes "--trace 0" and "--trace 1".
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, args[i]+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// checkClients refuses a workload that drives more client processes
// than the machine has processors.
func checkClients(w *workload, nproc int) error {
	if w.clients > nproc {
		return fmt.Errorf("%s drives %d client processes but this machine has %d processors", w.name, w.clients, nproc)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
