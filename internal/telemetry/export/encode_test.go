package export

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// The reference for every encoder is encoding/json over the payload
// shapes the reading side decodes into (healthPayload, alertPayload,
// AlertSummary) plus metricsJSON below, with deltas computed the way the
// recorder did before it kept scrapes sorted: one map lookup per counter.

// metricsJSON is the "metrics" payload as encoding/json sees it.
type metricsJSON struct {
	Counters   map[string]uint64     `json:"counters,omitempty"`
	Delta      map[string]uint64     `json:"delta,omitempty"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string]histDigest `json:"histograms,omitempty"`
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("reference json.Marshal: %v", err)
	}
	return out
}

// healthBothWays scrapes prev then cur through a source and returns the
// encoder's health payload for cur beside the reference's.
func healthBothWays(t testing.TB, object string, prevC, curC map[string]uint64, gauges map[string]float64) (got, want []byte) {
	t.Helper()
	src := &source{object: object}
	src.load(prevC, nil)
	src.load(curC, gauges)
	delta := appendDeltas(nil, src.cur.counters, src.prev.counters)
	got = appendHealth(nil, object, &src.cur, delta)

	refDelta := make(map[string]uint64)
	for k, v := range curC {
		if d := v - prevC[k]; d != 0 {
			refDelta[k] = d
		}
	}
	want = mustJSON(t, healthPayload{Object: object, Counters: curC, Delta: refDelta, Gauges: gauges})
	return got, want
}

func TestHealthEncodeMatchesJSON(t *testing.T) {
	cases := []struct {
		name        string
		object      string
		prev, cur   map[string]uint64
		gauges      map[string]float64
		wantLiteral string // also pinned as text where the shape is the point
	}{
		{name: "nil maps", object: "nic:A", wantLiteral: `{"object":"nic:A","counters":null}`},
		{name: "empty maps", object: "nic:A", cur: map[string]uint64{}, gauges: map[string]float64{},
			wantLiteral: `{"object":"nic:A","counters":{}}`},
		{name: "no movement omits delta", object: "a-to-b",
			prev: map[string]uint64{"out_frames": 7}, cur: map[string]uint64{"out_frames": 7},
			wantLiteral: `{"object":"a-to-b","counters":{"out_frames":7}}`},
		{name: "sorted keys, delta of the movers only", object: "kvcli",
			prev:        map[string]uint64{"z": 1, "a": 2, "m": 3},
			cur:         map[string]uint64{"z": 1, "a": 5, "m": 3, "b": 9},
			gauges:      map[string]float64{"util": 0.25, "depth": 3},
			wantLiteral: `{"object":"kvcli","counters":{"a":5,"b":9,"m":3,"z":1},"delta":{"a":3,"b":9},"gauges":{"depth":3,"util":0.25}}`},
		{name: "counter vanished and another appeared", object: "o",
			prev: map[string]uint64{"gone": 4, "kept": 1}, cur: map[string]uint64{"kept": 2, "new": 8}},
		{name: "large counters and wrap-around delta", object: "o",
			prev: map[string]uint64{"big": math.MaxUint64, "down": 10, "half": 1 << 63},
			cur:  map[string]uint64{"big": math.MaxUint64, "down": 3, "half": 1<<63 + 1<<53 + 1}},
		{name: "fractional and exponent-range gauges", object: "o", cur: map[string]uint64{"c": 1},
			gauges: map[string]float64{
				"zero": 0, "negzero": math.Copysign(0, -1), "one": 1, "neg": -17, "third": 1.0 / 3,
				"tiny": 1e-7, "edge_small": 1e-6, "below_edge": 9.99e-7, "denormal": 5e-324,
				"edge_big": 1e21, "below_big": 1e20, "just_below": 999999999999999868928,
				"huge": math.MaxFloat64, "neghuge": -math.MaxFloat64, "e-10": 1.5e-10, "e+100": 2.5e100,
				"int53": 1 << 53, "past53": 1<<53 + 2, "frac_big": 123456789.125, "negfrac": -0.000123,
			}},
		{name: "keys and object that need escaping", object: "nic:\"A\"\\<b>&\u2028\x00\x1f\x7f",
			cur: map[string]uint64{
				`kv_op_latency_ps{op="get"}`: 1, "tab\there": 2, "nl\nhere": 3, "bs\bff\fcr\r": 4,
				"héllo wörld ☃": 5, "bad\xffutf8\xc3": 6, "ls\u2028ps\u2029": 7, "<script>&amp;": 8, "": 9,
			},
			gauges: map[string]float64{"a<b": 1.5, "": 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := healthBothWays(t, c.object, c.prev, c.cur, c.gauges)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder differs from encoding/json:\n got %s\nwant %s", got, want)
			}
			if c.wantLiteral != "" && string(got) != c.wantLiteral {
				t.Fatalf("payload\n got %s\nwant %s", got, c.wantLiteral)
			}
		})
	}
}

func TestAlertSummaryMetricsEncodeMatchJSON(t *testing.T) {
	for _, p := range []alertPayload{
		{},
		{Rule: "out-discards", Object: "a-to-b", Metric: "out_discards", Kind: "rate", Value: 4.25},
		{Rule: "kv-heartbeat", Object: "kvsrv:2", Metric: "kv_heartbeats", Kind: "no-progress", Value: 0.4000000001},
		{Rule: "op-latency-p99", Object: "testbed", Metric: `kv_op_latency_ps{op="put"}`, Kind: "quantile", Value: 2.000001e9},
		{Rule: "r<&>", Object: "o\u2029", Metric: "m\\", Kind: "k\"", Value: -1e-9},
	} {
		if got, want := appendAlert(nil, p), mustJSON(t, p); !bytes.Equal(got, want) {
			t.Errorf("alert payload:\n got %s\nwant %s", got, want)
		}
	}
	for _, s := range []AlertSummary{
		{},
		{Rule: "watchdog", Object: "nic:A", Fired: 0, Active: false},
		{Rule: "retry-storm", Object: "nic:\"B\"", Fired: math.MaxUint64, Active: true},
	} {
		if got, want := appendSummary(nil, s), mustJSON(t, s); !bytes.Equal(got, want) {
			t.Errorf("summary payload:\n got %s\nwant %s", got, want)
		}
	}
	hist := histDigest{Count: 12, Sum: -3, P50: 1.5e6, P99: 2.25e21}
	for _, c := range []struct {
		p   metricsPayload
		ref metricsJSON
	}{
		{},
		{
			p:   metricsPayload{counters: []kv[uint64]{{"roce_rx", 1}, {"roce_tx{nic=10.0.0.1}", 2}}},
			ref: metricsJSON{Counters: map[string]uint64{"roce_tx{nic=10.0.0.1}": 2, "roce_rx": 1}},
		},
		{
			p:   metricsPayload{gauges: []kv[float64]{{"pcie_util", 0.5}}, hists: []kv[histDigest]{{"op_ps", hist}}},
			ref: metricsJSON{Gauges: map[string]float64{"pcie_util": 0.5}, Histograms: map[string]histDigest{"op_ps": hist}},
		},
		{
			p: metricsPayload{
				counters: []kv[uint64]{{"a", 1}, {"b", 2}}, delta: []kv[uint64]{{"b", 1}},
				gauges: []kv[float64]{{"g", -2}}, hists: []kv[histDigest]{{"h1", histDigest{}}, {"h2", hist}},
			},
			ref: metricsJSON{
				Counters: map[string]uint64{"a": 1, "b": 2}, Delta: map[string]uint64{"b": 1},
				Gauges: map[string]float64{"g": -2}, Histograms: map[string]histDigest{"h1": {}, "h2": hist},
			},
		},
	} {
		if got, want := appendMetrics(nil, &c.p), mustJSON(t, c.ref); !bytes.Equal(got, want) {
			t.Errorf("metrics payload:\n got %s\nwant %s", got, want)
		}
	}
}

func TestAppendFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("appendFloat(%v) did not panic; json.Marshal refuses it", f)
				}
			}()
			appendFloat(nil, f)
		}()
	}
}

// FuzzHealthEncodeMatchesJSON: for any object name, metric names, counter
// values before and after, and gauge values, the health payload is what
// encoding/json would have written.
func FuzzHealthEncodeMatchesJSON(f *testing.F) {
	f.Add("nic:A", "out_frames", "fcs_err", "outstanding_ops", uint64(0), uint64(10), uint64(3), uint64(3), math.Float64bits(2), byte(0))
	f.Add("kvsrv:1", "kv_heartbeats", "", "kv_serving", uint64(41), uint64(42), uint64(0), uint64(0), math.Float64bits(1), byte(1))
	f.Add("a<b>&\u2028", "k\"1\\", "k\xff2", "g\n", uint64(math.MaxUint64), uint64(0), uint64(1)<<53, uint64(1)<<63, math.Float64bits(1e-7), byte(2))
	f.Add("", "same", "same", "same", uint64(5), uint64(5), uint64(6), uint64(7), math.Float64bits(-1.25e21), byte(7))
	f.Add("o", "a", "b", "c", uint64(1), uint64(2), uint64(3), uint64(4), math.Float64bits(5e-324), byte(12))
	f.Fuzz(func(t *testing.T, object, k1, k2, gk string, p1, c1, p2, c2, gbits uint64, shape byte) {
		g := math.Float64frombits(gbits)
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return // no JSON form on either side
		}
		// shape picks which maps are nil, empty or filled, and whether a
		// counter exists only before or only after.
		var prev, cur map[string]uint64
		var gauges map[string]float64
		if shape&1 == 0 {
			prev = map[string]uint64{k1: p1, k2: p2}
		}
		switch shape >> 1 & 3 {
		case 0:
			cur = map[string]uint64{k1: c1, k2: c2}
		case 1:
			cur = map[string]uint64{k1: c1}
		case 2:
			cur = map[string]uint64{}
		}
		switch shape >> 3 & 3 {
		case 0:
			gauges = map[string]float64{gk: g, k1: float64(c1)}
		case 1:
			gauges = map[string]float64{gk: g}
		case 2:
			gauges = map[string]float64{}
		}
		got, want := healthBothWays(t, object, prev, cur, gauges)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}
