package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"strom/internal/core"
	"strom/internal/experiments"
	"strom/internal/fabric"
)

// tiny sizes a run for the tests: a few short rounds.
func tiny(seed int64) runConfig {
	return runConfig{seed: seed, rounds: 4, ops: 3000, scale: 0.01}
}

// Fire drill: a slowdown outside the program (a busy loop in the
// driver's own completion path) must lower host_ops_per_s and leave
// every simulated-clock metric bit-identical.
func TestBusyLoopMovesHostClockOnly(t *testing.T) {
	base, err := runEndToEnd(workloadByName("verbs-small"), tiny(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny(7)
	cfg.spin = 20000
	slow, err := runEndToEnd(workloadByName("verbs-small"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b, s := base.metrics["host_ops_per_s"], slow.metrics["host_ops_per_s"]; s >= b/2 {
		t.Errorf("busy loop did not show: host_ops_per_s %.0f -> %.0f", b, s)
	}
	for _, spec := range endToEnd {
		if !strings.HasPrefix(spec.Name, "sim_") {
			continue
		}
		if b, s := base.metrics[spec.Name], slow.metrics[spec.Name]; b != s {
			t.Errorf("%s moved with host time: %v -> %v", spec.Name, b, s)
		}
	}
	if base.dig != slow.dig {
		t.Errorf("simulated digest moved with host time: %+v -> %+v", base.dig, slow.dig)
	}
}

// Fire drill: a change to the modelled hardware (the 100 G profile) must
// move simulated latency and leave the event count per op alone.
func TestProfileMovesSimClockOnly(t *testing.T) {
	shape := verbsShape{
		profile: core.Profile10G, cable: fabric.DirectCable10G,
		window: 16, size: 64, srcBytes: 1 << 20, mixed: true,
	}
	fast := shape
	fast.profile, fast.cable = core.Profile100G, fabric.DirectCable100G
	var mean [2]float64
	var fired [2]uint64
	for i, s := range []verbsShape{shape, fast} {
		w := verbsWorkload("verbs-small", "", 3000, s)
		in := generateInputs(w, tiny(7))
		rec := newRecording(in)
		rr, _, err := runRound(w, in, 7, roundOpts{}, rec)
		if err != nil {
			t.Fatal(err)
		}
		mean[i] = computeSim(in.ops, rec, rr.dig.end).readMean
		fired[i] = rr.cnt.n[cFired]
	}
	if mean[1] >= mean[0] {
		t.Errorf("100 G profile did not lower sim_read_mean_us: %v -> %v", mean[0], mean[1])
	}
	if fired[0] != fired[1] {
		t.Errorf("sim.events_per_op moved with the profile: %d -> %d events", fired[0], fired[1])
	}
}

// Fire drill: one corrupted destination byte must fail the data check.
func TestCorruptedByteFailsDataCheck(t *testing.T) {
	for _, name := range []string{"verbs-small", "verbs-bulk"} {
		cfg := tiny(7)
		cfg.ops, cfg.corrupt = 200, 100
		_, err := runEndToEnd(workloadByName(name), cfg)
		if err == nil || !strings.Contains(err.Error(), "data checks failed") {
			t.Errorf("%s: corrupted destination went unnoticed: %v", name, err)
		}
	}
}

// benchmarkJSON mirrors the BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// Every workload prints exactly the metrics BENCHMARK.json declares, and
// the declarations there equal the ones in spec.go.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the benchmark's run length %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads()))
	}
	sameSpecs := func(kind string, declared, have []metricSpec) {
		if len(declared) != len(have) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, spec.go %d", len(declared), kind, len(have))
		}
		for i := range have {
			if declared[i] != have[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, declared[i], have[i])
			}
		}
	}
	sameSpecs("end-to-end", doc.EndToEnd, endToEnd)
	sameSpecs("per-layer", doc.PerLayer, perLayer)

	for i, w := range workloads() {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q %q", i, doc.Workloads[i], w.name, w.why)
		}
		res, err := runEndToEnd(w, runConfig{seed: 3, rounds: 2, ops: 400})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.metrics) != len(endToEnd) {
			t.Errorf("%s printed %d end-to-end metrics, declared %d", w.name, len(res.metrics), len(endToEnd))
		}
		for _, spec := range endToEnd {
			if v, ok := res.metrics[spec.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s missing or zero (%v)", w.name, spec.Name, v)
			}
		}
		if res.failed != 0 {
			t.Errorf("%s: %d ops failed", w.name, res.failed)
		}
	}
}

// A traced run prints every per-layer metric; the layers a workload
// bypasses report zero work, and a spilled Get costs more verbs than an
// inline one.
func TestTracedRunSeesBypassedLayers(t *testing.T) {
	traced := func(name string) map[string]float64 {
		t.Helper()
		var env environment
		cfg := tiny(5)
		cfg.rounds, cfg.ops = 1, 600
		res, err := runTraced(workloadByName(name), cfg, &env, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, spec := range perLayer {
			if _, ok := res.metrics[spec.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not printed", name, spec.Name)
			}
		}
		if len(res.metrics) != len(perLayer) {
			t.Errorf("%s printed %d per-layer metrics, declared %d", name, len(res.metrics), len(perLayer))
		}
		if res.metrics["telemetry.traced_overhead_ratio"] <= 0 {
			t.Errorf("%s: traced overhead not reported", name)
		}
		return res.metrics
	}
	small := traced("verbs-small")
	for _, zero := range []string{"fabric.switch_frames_per_op", "kvserve.ops_per_op", "core.rpcs_dispatched_per_op", "core.kernel_dma_reads_per_op"} {
		if small[zero] != 0 {
			t.Errorf("verbs-small: bypassed layer reports work: %s = %v", zero, small[zero])
		}
	}
	large := traced("kv-large")
	if large["core.rpcs_dispatched_per_op"] <= 0 || large["fabric.switch_frames_per_op"] <= 0 {
		t.Errorf("kv-large: kernel or switch reports no work: %v", large)
	}
	if g, l := large["kvserve.verbs_per_get"], large["kvserve.verbs_per_get_large"]; l <= g {
		t.Errorf("kv-large: spilled Get posts %v verbs, inline Get %v", l, g)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	// set describes one result set of four seeds. Its simulated write
	// latency differs by 10 % from seed to seed, far beyond any bound, and
	// is the same for a given seed in every set.
	type set struct {
		rate, readMean, seconds float64
		failed                  int
	}
	write := func(name string, s set) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 4; i++ {
			m := make(map[string]float64)
			for _, spec := range endToEnd {
				m[spec.Name] = 1
			}
			m["host_ops_per_s"] = s.rate * (1 + 0.001*float64(i))
			m["sim_read_mean_us"] = s.readMean
			m["sim_write_mean_us"] = 9 * (1 + 0.1*float64(i))
			// A spread wider than the bound, with medians equal.
			m["host_heap_goal_mb"] = 10 * (1 + 0.2*float64(i))
			rec := record{
				Env:    environment{Workload: "verbs-small", Seed: int64(i), Seconds: s.seconds},
				Result: result{Correct: true, Attempted: 100, Failed: s.failed, Metrics: withUnits(m, endToEnd)},
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := set{rate: 1000, readMean: 4, seconds: runSeconds}
	a := write("a.json", base)
	same := write("same.json", base)

	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "host_heap_goal_mb") && !strings.Contains(line, "unresolved"):
			t.Errorf("a spread wider than the bound was not reported as unresolved: %s", line)
		case strings.Contains(line, "sim_write_mean_us") && !strings.HasSuffix(line, " ok"):
			t.Errorf("a simulated metric equal seed by seed was not ok: %s", line)
		}
	}

	slower, latency, failing := base, base, base
	slower.rate = 600
	latency.readMean = 4.05 // 1.25 %: within the bound on medians over seeds, beyond the paired one
	failing.failed = 1
	for name, s := range map[string]set{"slower.json": slower, "latency.json": latency, "failing.json": failing} {
		out.Reset()
		if err := compareFiles(&out, a, write(name, s)); !errors.Is(err, errRegressed) {
			t.Errorf("%s: want a regression, got %v\n%s", name, err, out.String())
		}
	}
	out.Reset()
	if err := compareFiles(&out, filepath.Join(dir, "slower.json"), a); err != nil {
		t.Errorf("an improvement was reported as %v\n%s", err, out.String())
	}

	shorter := base
	shorter.seconds = 6
	if err := compareFiles(&out, a, write("shorter.json", shorter)); err == nil || errors.Is(err, errRegressed) {
		t.Errorf("sets measured over different run lengths were compared: %v", err)
	}
}

// The driver passes "--trace 0" and "--trace 1"; by hand one types -trace.
func TestTraceFlagForms(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload kv-large --seed 3 --seconds 18 --trace 0", "--workload kv-large --seed 3 --seconds 18 --trace=0"},
		{"--workload kv-large --trace 1 --seed 3", "--workload kv-large --trace=1 --seed 3"},
		{"-workload kv-large -seed 3 -trace", "-workload kv-large -seed 3 -trace"},
		{"-trace -workload kv-large", "-trace -workload kv-large"},
	} {
		if got := strings.Join(joinTraceValue(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("joinTraceValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// kv-* must keep running on the switch the issue names.
func TestKVSwitchIsTheIncastSwitch(t *testing.T) {
	if got, want := kvSwitchConfig(), experiments.IncastSwitchConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("kvSwitchConfig() = %+v, experiments.IncastSwitchConfig() = %+v", got, want)
	}
}

func TestRefusesMoreClientsThanProcessors(t *testing.T) {
	w := workloadByName("kernel-rpc")
	if err := checkClients(w, w.clients-1); err == nil {
		t.Error("a machine with fewer processors than client processes was accepted")
	}
	if err := checkClients(w, w.clients); err != nil {
		t.Error(err)
	}
}
