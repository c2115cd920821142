package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"strom/internal/sim"
)

func TestNilRegistryAndHandlesAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x", L("a", "b"))
	g := r.Gauge("y")
	h := r.Histogram("z", "ps")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	c.Set(9)
	g.Set(1.5)
	h.Observe(3 * sim.Nanosecond)
	h.ObserveInt(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be zero")
	}
	r.OnCollect(func() { t.Fatal("collector on nil registry must not run") })
	r.Collect()
}

func TestRegistryDedupesByNameAndSortedLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("pkts", L("nic", "A"), L("dir", "tx"))
	b := r.Counter("pkts", L("dir", "tx"), L("nic", "A"))
	if a != b {
		t.Fatal("label order must not create a distinct metric")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter = %d, want 3", b.Value())
	}
	if c := r.Counter("pkts", L("nic", "B"), L("dir", "tx")); c == a {
		t.Fatal("different labels must create a distinct metric")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "ps")
	for i := int64(1); i <= 1000; i++ {
		h.ObserveInt(i)
	}
	if h.Count() != 1000 || h.Sum() != 500500 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1 (min)", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q1 = %v, want 1000 (max)", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Errorf("p50 = %v out of plausible log2-bucket range", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
}

func TestWriteJSONDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_metric").Add(2)
		r.Counter("a_metric", L("nic", "B")).Add(1)
		r.Counter("a_metric", L("nic", "A")).Add(7)
		r.Gauge("util", L("link", "ab")).Set(0.25)
		r.Histogram("lat", "ps", L("qp", "1")).Observe(5 * sim.Microsecond)
		r.OnCollect(func() { r.Counter("collected").Set(42) })
		return r
	}
	var one, two bytes.Buffer
	if err := build().WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("two identical registries exported different bytes")
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(one.Bytes(), &snap); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if snap.Counters["collected"] != 42 {
		t.Errorf("collector did not run before export: %v", snap.Counters)
	}
	if snap.Counters[`a_metric{nic=A}`] != 7 {
		t.Errorf("labelled counter missing: %v", snap.Counters)
	}
	// Sorted key order in the raw bytes.
	s := one.String()
	if strings.Index(s, `a_metric{nic=A}`) > strings.Index(s, `b_metric`) {
		t.Error("counter keys are not sorted in the export")
	}
}

func TestProbeSamplesAndStopsWithSim(t *testing.T) {
	eng := sim.NewEngine(1)
	var samples []sim.Time
	// A workload that keeps the queue busy for 10 µs.
	var work func()
	n := 0
	work = func() {
		n++
		if n < 10 {
			eng.Schedule(sim.Microsecond, work)
		}
	}
	eng.Schedule(0, work)
	Probe(eng, 2*sim.Microsecond, func(now sim.Time) { samples = append(samples, now) })
	end := eng.Run()
	if len(samples) == 0 {
		t.Fatal("probe never sampled")
	}
	if len(samples) > 10 {
		t.Fatalf("probe kept the simulation alive: %d samples, end %v", len(samples), end)
	}
	for i, s := range samples {
		if want := sim.Time(0).Add(sim.Duration(i+1) * 2 * sim.Microsecond); s != want {
			t.Fatalf("sample %d at %v, want %v", i, s, want)
		}
	}
}

func TestTraceBufferJSONAndRender(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTrace(eng)
	tb.NameProcess(1, "nicA")
	tb.NameThread(1, 3, "qp3")
	eng.Schedule(sim.Microsecond, func() {
		start := eng.Now()
		tb.Instant(1, 3, "wire", "RPC_PARAMS", "psn=0")
		eng.Schedule(5*sim.Microsecond, func() { tb.Complete(1, 3, "op", "RPC", start, eng.Now().Sub(start), "") })
	})
	eng.Run()
	if tb.Len() != 2 {
		t.Fatalf("events = %d, want 2", tb.Len())
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  uint32   `json:"pid"`
			Tid  uint32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawSpan, sawInstant, sawMeta bool
	for _, ev := range parsed.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "RPC":
			sawSpan = true
			if ev.Ts != 1.0 || ev.Dur == nil || *ev.Dur != 5.0 {
				t.Errorf("span ts/dur = %v/%v, want 1/5 µs", ev.Ts, ev.Dur)
			}
		case ev.Ph == "i" && ev.Name == "RPC_PARAMS":
			sawInstant = true
		case ev.Ph == "M":
			sawMeta = true
		}
	}
	if !sawSpan || !sawInstant || !sawMeta {
		t.Fatalf("span=%v instant=%v meta=%v", sawSpan, sawInstant, sawMeta)
	}
	var txt bytes.Buffer
	if err := tb.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "nicA/qp3") || !strings.Contains(txt.String(), "psn=0") {
		t.Errorf("render output missing track name or arg:\n%s", txt.String())
	}
}

func TestNilTraceBufferIsInert(t *testing.T) {
	var tb *TraceBuffer
	tb.NameProcess(1, "x")
	tb.NameThread(1, 2, "y")
	tb.Instant(1, 2, "c", "n", "")
	tb.Complete(1, 2, "c", "n", 0, 5, "")
	if tb.Len() != 0 {
		t.Fatal("nil trace buffer recorded events")
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatal("nil trace buffer must still emit a valid envelope")
	}
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// Scope returns a child registry sharing the parent's handles while
// keeping a scoped view: the same (name, labels) resolves to the same
// counter, but each scope's Each*/Collect covers only what was resolved
// (or registered) through it — the contract that makes per-machine
// mid-run scraping sound on a sharded testbed.
func TestScopeSharesHandlesAndScopedView(t *testing.T) {
	parent := NewRegistry()
	s1, s2 := parent.Scope(), parent.Scope()
	c1 := s1.Counter("reqs", L("m", "0"))
	if cp := parent.Counter("reqs", L("m", "0")); cp != c1 {
		t.Fatal("scope resolved a different handle than the parent")
	}
	c2 := s2.Counter("reqs", L("m", "1"))
	c1.Add(3)
	c2.Add(5)
	var collected1, collected2 int
	s1.OnCollect(func() { collected1++ })
	s2.OnCollect(func() { collected2++ })

	view := func(r *Registry) map[string]uint64 {
		out := map[string]uint64{}
		r.EachCounter(func(key string, v uint64) { out[key] = v })
		return out
	}
	v1, v2, vp := view(s1), view(s2), view(parent)
	if len(v1) != 1 || v1["reqs{m=0}"] != 3 {
		t.Fatalf("scope 1 view %v, want only reqs{m=0}=3", v1)
	}
	if len(v2) != 1 || v2["reqs{m=1}"] != 5 {
		t.Fatalf("scope 2 view %v, want only reqs{m=1}=5", v2)
	}
	if len(vp) != 2 {
		t.Fatalf("parent view %v, want the union", vp)
	}
	s1.Collect()
	if collected1 != 1 || collected2 != 0 {
		t.Fatalf("scope 1 Collect ran (%d, %d) callbacks, want only its own", collected1, collected2)
	}
	parent.Collect()
	if collected1 != 2 || collected2 != 1 {
		t.Fatalf("parent Collect ran (%d, %d), want every scope's callbacks", collected1, collected2)
	}
	var nilReg *Registry
	if nilReg.Scope() != nil {
		t.Fatal("Scope on the nil registry must return nil")
	}
}
