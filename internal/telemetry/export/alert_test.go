package export

import (
	"testing"

	"strom/internal/sim"
)

// evalSeries feeds a sequence of (time, counters, gauges) scrapes of a
// single object through one rule and returns the fire/resolve event
// types in order.
func evalSeries(t *testing.T, rule Rule, scrapes []struct {
	at sim.Time
	c  map[string]uint64
	g  map[string]float64
}) []string {
	t.Helper()
	a := newAlerter([]Rule{rule})
	src := &source{object: "obj"}
	var out []string
	for _, s := range scrapes {
		scrape(a, src, s.at, s.c, s.g, func(typ string, p alertPayload) {
			out = append(out, typ)
		})
	}
	return out
}

// scrape feeds one report of src through the alerter, as scrapeSource
// does.
func scrape(a *alerter, src *source, at sim.Time, c map[string]uint64, g map[string]float64, emit func(typ string, p alertPayload)) {
	src.load(c, g)
	a.eval(at, src, emit)
}

func TestThresholdFiresAfterHold(t *testing.T) {
	rule := Rule{Name: "qp-stuck", Metric: "qp1_state", Kind: Threshold, Op: "eq", Value: 1, For: 1 * sim.Millisecond}
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	got := evalSeries(t, rule, []struct {
		at sim.Time
		c  map[string]uint64
		g  map[string]float64
	}{
		{us(0), nil, map[string]float64{"qp1_state": 0}},
		{us(100), nil, map[string]float64{"qp1_state": 1}},  // condition starts
		{us(600), nil, map[string]float64{"qp1_state": 1}},  // held 500us: not yet
		{us(1200), nil, map[string]float64{"qp1_state": 1}}, // held 1.1ms: fire
		{us(1400), nil, map[string]float64{"qp1_state": 1}}, // active, no re-fire
		{us(1600), nil, map[string]float64{"qp1_state": 0}}, // resolve
		{us(1700), nil, map[string]float64{"qp1_state": 1}}, // pending restarts
		{us(1800), nil, map[string]float64{"qp1_state": 1}}, // not held long enough
	})
	want := []string{"alert", "resolve"}
	if len(got) != len(want) || got[0] != "alert" || got[1] != "resolve" {
		t.Fatalf("event sequence %v, want %v", got, want)
	}
}

func TestThresholdImmediate(t *testing.T) {
	rule := Rule{Name: "remote-access", Metric: "remote_access_naks", Kind: Threshold, Value: 0}
	got := evalSeries(t, rule, []struct {
		at sim.Time
		c  map[string]uint64
		g  map[string]float64
	}{
		{0, map[string]uint64{"remote_access_naks": 0}, nil},
		{100, map[string]uint64{"remote_access_naks": 1}, nil},
		{200, map[string]uint64{"remote_access_naks": 5}, nil},
	})
	if len(got) != 1 || got[0] != "alert" {
		t.Fatalf("event sequence %v, want one alert", got)
	}
}

func TestRateOverWindow(t *testing.T) {
	// > 2 events per ms over a 500us window: needs >1 new events per
	// trailing half-millisecond.
	rule := Rule{Name: "out-discards", Metric: "out_discards", Kind: Rate, Value: 2, For: 500 * sim.Microsecond}
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	scr := func(at sim.Time, v uint64) struct {
		at sim.Time
		c  map[string]uint64
		g  map[string]float64
	} {
		return struct {
			at sim.Time
			c  map[string]uint64
			g  map[string]float64
		}{at, map[string]uint64{"out_discards": v}, nil}
	}
	got := evalSeries(t, rule, []struct {
		at sim.Time
		c  map[string]uint64
		g  map[string]float64
	}{
		scr(us(0), 0),
		scr(us(250), 5),   // window not yet full: silent even though rate is huge
		scr(us(600), 9),   // window [0,600]: 9 events / 0.6ms = 15/ms -> fire
		scr(us(900), 9),   // window base (250,5): 4/0.65ms still > 2 -> active
		scr(us(1500), 9),  // window base (900,9): flat -> resolve
		scr(us(2100), 12), // window [1500,2100]: 3/0.6ms = 5/ms -> fire again
	})
	want := []string{"alert", "resolve", "alert"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("event sequence %v, want %v", got, want)
	}
}

func TestNoProgressWatchdog(t *testing.T) {
	rule := Rule{Name: "watchdog", Metric: "ops_completed", Kind: NoProgress, For: 1 * sim.Millisecond, While: "outstanding_ops"}
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	scr := func(at sim.Time, done uint64, outstanding float64) struct {
		at sim.Time
		c  map[string]uint64
		g  map[string]float64
	} {
		return struct {
			at sim.Time
			c  map[string]uint64
			g  map[string]float64
		}{at, map[string]uint64{"ops_completed": done}, map[string]float64{"outstanding_ops": outstanding}}
	}
	got := evalSeries(t, rule, []struct {
		at sim.Time
		c  map[string]uint64
		g  map[string]float64
	}{
		scr(us(0), 0, 0),    // idle: gated
		scr(us(2000), 0, 0), // idle for 2ms: still gated, no alert
		scr(us(2100), 1, 1), // work starts, progress
		scr(us(2600), 1, 1), // flat 500us: not yet
		scr(us(3200), 1, 1), // flat 1.1ms with outstanding work: fire
		scr(us(3300), 2, 1), // progress: resolve
		scr(us(4400), 2, 0), // flat but drained: gated, no alert
	})
	want := []string{"alert", "resolve"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("event sequence %v, want %v", got, want)
	}
}

func TestRuleObjectFilterAndMissingMetric(t *testing.T) {
	a := newAlerter([]Rule{
		{Name: "only-b", Object: "b", Metric: "x", Kind: Threshold, Value: 0},
	})
	var fired []string
	emit := func(typ string, p alertPayload) { fired = append(fired, p.Object) }
	srcA, srcB := &source{object: "a"}, &source{object: "b"}
	scrape(a, srcA, 0, map[string]uint64{"x": 5}, nil, emit) // wrong object
	scrape(a, srcB, 0, map[string]uint64{"y": 5}, nil, emit) // metric missing
	scrape(a, srcB, 0, map[string]uint64{"x": 5}, nil, emit) // fires
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired %v, want exactly [b]", fired)
	}
	// Only (rule, object) pairs that were actually evaluated get a
	// summary: object "a" never matched the rule's Object filter.
	sums := a.summaries([]string{"a", "b"})
	if len(sums) != 1 || sums[0].Object != "b" || sums[0].Fired != 1 {
		t.Fatalf("summaries %+v, want exactly one entry for b with fired=1", sums)
	}
}

// A glob rule tracks every matched metric with independent state: one
// QP's retransmission storm fires (and resolves) without touching the
// other QP's counter, and a later storm on the second QP is its own
// alert. Summaries fold the per-metric states into one (rule, object)
// tally.
func TestGlobRulePerMetricState(t *testing.T) {
	rule := Rule{Name: "retry-storm", Metric: "qp*_retransmissions", Kind: Rate, Op: "gt", Value: 2, For: 500 * sim.Microsecond}
	a := newAlerter([]Rule{rule})
	us := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }
	var events []string
	emit := func(typ string, p alertPayload) { events = append(events, typ+":"+p.Metric) }
	src := &source{object: "nic:A"}
	scr := func(at sim.Time, qp1, qp2 uint64) {
		scrape(a, src, at, map[string]uint64{
			"qp1_retransmissions": qp1,
			"qp2_retransmissions": qp2,
			"out_frames":          999, // must not match the glob
		}, nil, emit)
	}
	scr(us(0), 0, 0)
	scr(us(600), 9, 0)  // qp1: 9 events/0.6ms = 15/ms -> fire; qp2 flat
	scr(us(1200), 9, 0) // qp1 flat over the trailing window -> resolve
	scr(us(1800), 9, 9) // qp2 storms now: its own independent alert
	want := []string{
		"alert:qp1_retransmissions",
		"resolve:qp1_retransmissions",
		"alert:qp2_retransmissions",
	}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events %v, want %v", events, want)
		}
	}
	sums := a.summaries([]string{"nic:A"})
	if len(sums) != 1 || sums[0].Fired != 2 {
		t.Fatalf("summaries %+v, want one entry with fired=2", sums)
	}
}

// A Quantile rule evaluates a histogram's Q-quantile at registry
// scrapes: it fires when the quantile crosses the threshold, resolves
// when it comes back, and ignores histograms outside its glob.
func TestQuantileRuleFiresAndResolves(t *testing.T) {
	rule := Rule{Name: "op-latency-p99", Metric: "kv_op_latency_ps*", Kind: Quantile, Q: 0.99, Op: "gt", Value: 1000}
	a := newAlerter([]Rule{rule})
	var events []string
	emit := func(typ string, p alertPayload) { events = append(events, typ+":"+p.Metric) }
	q := func(v float64) func(float64) float64 {
		return func(qq float64) float64 {
			if qq != 0.99 {
				t.Errorf("rule evaluated quantile %v, want 0.99", qq)
			}
			return v
		}
	}
	key := "kv_op_latency_ps{op=put}"
	a.evalQuantile(0, "testbed", key, q(500), emit)             // under: silent
	a.evalQuantile(100, "testbed", key, q(1500), emit)          // over: fire (For=0)
	a.evalQuantile(200, "testbed", "other_hist", q(9999), emit) // no glob match
	a.evalQuantile(300, "testbed", key, q(800), emit)           // back under: resolve
	want := []string{"alert:" + key, "resolve:" + key}
	if len(events) != len(want) || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events %v, want %v", events, want)
	}
}
