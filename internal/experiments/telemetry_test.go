package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// runTelemetry runs the clean scenario and returns its metrics and trace.
func runTelemetry(t *testing.T) (metrics, trace string) {
	t.Helper()
	var m, tr bytes.Buffer
	if err := exportClean(Quick(), Exports{Metrics: &m, Trace: &tr}); err != nil {
		t.Fatalf("exportClean: %v", err)
	}
	return m.String(), tr.String()
}

// The exported metrics and trace must be byte-identical across repeated
// same-seed runs, including runs that execute concurrently (the -j N
// harness case): every run owns a private engine, registry and buffer.
func TestTelemetryDeterministic(t *testing.T) {
	m0, tr0 := runTelemetry(t)
	const workers = 4
	var wg sync.WaitGroup
	ms := make([]string, workers)
	trs := make([]string, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var m, tr bytes.Buffer
			errs[i] = exportClean(Quick(), Exports{Metrics: &m, Trace: &tr})
			ms[i], trs[i] = m.String(), tr.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if ms[i] != m0 {
			t.Errorf("concurrent run %d: metrics differ from sequential run", i)
		}
		if trs[i] != tr0 {
			t.Errorf("concurrent run %d: trace differs from sequential run", i)
		}
	}
}

// The scenario must light up every layer of the registry: per-NIC stack
// counters (including the reliability machinery driven by the lossy
// phase), per-QP latency histograms, per-kernel occupancy, per-direction
// link counters and probe-driven samples.
func TestTelemetryMetricsContent(t *testing.T) {
	metrics, trace := runTelemetry(t)
	var snap struct {
		Counters   map[string]uint64          `json:"counters"`
		Gauges     map[string]float64         `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(metrics), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	for _, key := range []string{
		"roce_tx_packets{nic=10.0.0.1}",
		"roce_tx_bytes{nic=10.0.0.1}",
		"roce_rx_bytes{nic=10.0.0.2}",
		"roce_retransmissions{nic=10.0.0.1}",
		"nic_rpcs_dispatched{nic=B}",
		"link_frames{dir=a-to-b}",
		"pcie_dma_read_commands{nic=B}",
	} {
		if snap.Counters[key] == 0 {
			t.Errorf("counter %q missing or zero", key)
		}
	}
	// The duplicate-READ cache counters must at least be registered for
	// the responder (hits depend on which frames the lossy phase drops).
	if _, ok := snap.Counters["roce_dup_read_cache_hits{nic=10.0.0.2}"]; !ok {
		t.Errorf("dup-read-cache hit counter not registered for B")
	}
	for _, key := range []string{
		"op_latency_ps{nic=A,op=RPC,qp=1}",
		"op_latency_ps{nic=A,op=WRITE,qp=1}",
		"op_latency_ps{nic=A,op=READ,qp=1}",
		"kernel_inflight_dma_samples{kernel=traversal,nic=B}",
		"qp_unacked_packets{nic=A,qp=1}",
		"link_utilisation_samples{dir=a-to-b}",
	} {
		if _, ok := snap.Histograms[key]; !ok {
			t.Errorf("histogram %q missing", key)
		}
	}
	if _, ok := snap.Gauges["kernel_inflight_dma{kernel=traversal,nic=B}"]; !ok {
		t.Errorf("kernel occupancy gauge missing")
	}

	// The trace must contain a complete RPC span on A's QP lane and the
	// traversal kernel's FSM states on B's kernel lane.
	var tr struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	var rpcSpan, fetch, respond bool
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "op" && ev.Name == "RPC" && ev.Dur != nil && *ev.Dur > 0:
			rpcSpan = true
		case ev.Cat == "kernel" && ev.Name == "FETCH_ELEMENT":
			fetch = true
		case ev.Cat == "kernel" && ev.Name == "RESPOND":
			respond = true
		}
	}
	if !rpcSpan {
		t.Errorf("no complete RPC span in trace")
	}
	if !fetch || !respond {
		t.Errorf("kernel FSM states missing from trace (FETCH_ELEMENT=%v RESPOND=%v)", fetch, respond)
	}
	if !strings.Contains(trace, `"displayTimeUnit": "ns"`) {
		t.Errorf("trace envelope missing displayTimeUnit")
	}
}

// The chaos scenario inherits the same determinism contract: metrics and
// trace exports are byte-identical across repeated same-seed runs,
// including concurrent ones — which also proves the injected fault
// schedule itself replays exactly (the fault counters are in the
// metrics).
func TestChaosTelemetryDeterministic(t *testing.T) {
	var m0, tr0 bytes.Buffer
	if err := exportChaos(Quick(), Exports{Metrics: &m0, Trace: &tr0}); err != nil {
		t.Fatalf("exportChaos: %v", err)
	}
	const workers = 4
	var wg sync.WaitGroup
	ms := make([]string, workers)
	trs := make([]string, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var m, tr bytes.Buffer
			errs[i] = exportChaos(Quick(), Exports{Metrics: &m, Trace: &tr})
			ms[i], trs[i] = m.String(), tr.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent chaos run %d: %v", i, errs[i])
		}
		if ms[i] != m0.String() {
			t.Errorf("concurrent chaos run %d: metrics differ from sequential run", i)
		}
		if trs[i] != tr0.String() {
			t.Errorf("concurrent chaos run %d: trace differs from sequential run", i)
		}
	}
}

// The chaos scenario's metrics must show both the injected faults and
// the reliability machinery they exercised.
func TestChaosTelemetryMetricsContent(t *testing.T) {
	run := runScenario(t, "chaos")
	if run.err != nil {
		t.Fatal(run.err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(run.metrics, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	for _, key := range []string{
		"chaos_dropped",
		"chaos_flap_dropped",
		"chaos_duplicated",
		"chaos_reordered",
		"chaos_dma_stalled",
		"roce_retransmissions{nic=10.0.0.1}",
		"link_dropped{dir=a-to-b}",
		"pcie_dma_stalled_commands{nic=A}",
		// The protection surface: the rogue requester's forged accesses
		// NAK'd by B, and the sandboxed traversal's rejected kernel DMA.
		"roce_nak_remote_access{nic=10.0.0.2}",
		"kernel_mr_fault{nic=B}",
	} {
		if snap.Counters[key] == 0 {
			t.Errorf("counter %q missing or zero", key)
		}
	}
	// Every violation class exports under a stable label set on both
	// NICs (zero or not), and the rogue's attacks moved at least one.
	var valFails uint64
	for _, class := range []string{"bad_rkey", "stale_epoch", "out_of_bounds", "permission", "unregistered"} {
		for _, nic := range []string{"A", "B"} {
			key := "mr_validation_fail{class=" + class + ",nic=" + nic + "}"
			v, ok := snap.Counters[key]
			if !ok {
				t.Errorf("counter %q not registered", key)
			}
			valFails += v
		}
	}
	if valFails == 0 {
		t.Errorf("mr_validation_fail never moved despite the rogue phase")
	}
}

// The chaos figure generators are pure functions of Options, so the
// rendered figures (what strombench prints) must be byte-identical at
// every -j value.
func TestChaosSuiteDeterministicAcrossJ(t *testing.T) {
	render := func(parallelism int) []string {
		out := make([]string, 0, 2)
		for _, r := range RunGenerators(Chaos(), Quick(), parallelism) {
			if r.Err != nil {
				t.Fatalf("%s (j=%d): %v", r.Name, parallelism, r.Err)
			}
			out = append(out, r.Fig.String()+"\n"+r.Fig.CSV())
		}
		return out
	}
	j1 := render(1)
	j4 := render(4)
	for i := range j1 {
		if j1[i] != j4[i] {
			t.Errorf("chaos figure %d differs between -j 1 and -j 4", i)
		}
	}
}
