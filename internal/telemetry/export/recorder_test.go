package export

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"strom/internal/sim"
)

// fakePort is a minimal health source driven by scheduled events.
type fakePort struct {
	frames  uint64
	naks    uint64
	pending float64
}

func (p *fakePort) scrape() (map[string]uint64, map[string]float64) {
	return map[string]uint64{
			"out_frames":         p.frames,
			"remote_access_naks": p.naks,
		}, map[string]float64{
			"outstanding_ops": p.pending,
		}
}

func TestRecorderScrapesDeltasAndSummaries(t *testing.T) {
	eng := sim.NewEngine(1)
	port := &fakePort{}
	rec := NewRecorder(DefaultRules())
	rec.Source(eng, "A", "port", "nic:A", port.scrape)

	// 10 frames, one per microsecond; a remote-access NAK at 5us.
	for i := 1; i <= 10; i++ {
		d := sim.Duration(i) * sim.Microsecond
		eng.Schedule(d, func() { port.frames++ })
	}
	eng.Schedule(5*sim.Microsecond, func() { port.naks++ })
	sink := &MemorySink{}
	rec.StreamTo(sink)
	rec.Start(2 * sim.Microsecond)
	eng.Run()

	if err := rec.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	var health, alerts, summaries int
	var lastFrames uint64
	var deltaTotal uint64
	for _, ev := range sink.Events {
		switch ev.Type {
		case "health":
			health++
			var p healthPayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatalf("health payload: %v", err)
			}
			if p.Object != "nic:A" {
				t.Fatalf("object %q, want nic:A", p.Object)
			}
			if p.Counters["out_frames"] < lastFrames {
				t.Fatalf("out_frames went backwards: %d < %d", p.Counters["out_frames"], lastFrames)
			}
			lastFrames = p.Counters["out_frames"]
			deltaTotal += p.Delta["out_frames"]
		case "alert":
			alerts++
		case "summary":
			summaries++
		}
	}
	if health < 3 {
		t.Fatalf("only %d health scrapes, want several", health)
	}
	if lastFrames != 10 {
		t.Fatalf("final out_frames %d, want 10 (Finish must capture the last word)", lastFrames)
	}
	if deltaTotal != 10 {
		t.Fatalf("sum of deltas %d, want 10 (deltas must partition the counter)", deltaTotal)
	}
	if alerts == 0 {
		t.Fatal("remote-access threshold rule did not fire on the NAK")
	}
	if summaries == 0 {
		t.Fatal("no alert summaries emitted at Finish")
	}
	if rec.Fired("remote-access") == 0 {
		t.Fatal("Fired(remote-access) = 0, want >= 1")
	}
	if rec.Fired("watchdog") != 0 {
		t.Fatal("watchdog fired on a run with no outstanding ops")
	}
}

// shardedStream builds a two-shard group with one source per shard,
// runs identical workloads and returns the merged JSONL bytes.
func shardedStream(t *testing.T) []byte {
	t.Helper()
	g := sim.NewShardGroup(7, 2, 100*sim.Nanosecond)
	rec := NewRecorder(DefaultRules())
	ports := make([]*fakePort, 2)
	for i := 0; i < 2; i++ {
		i := i
		eng := g.Shard(i)
		ports[i] = &fakePort{}
		host := string(rune('A' + i))
		rec.Source(eng, host, "port", "nic:"+host, ports[i].scrape)
		for j := 1; j <= 20+i*5; j++ {
			d := sim.Duration(j) * 700 * sim.Nanosecond
			eng.Schedule(d, func() { ports[i].frames++ })
		}
	}
	var buf bytes.Buffer
	rec.StreamTo(NewWriterSink(&buf))
	rec.Start(3 * sim.Microsecond)
	g.Run()
	if err := rec.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return buf.Bytes()
}

// The merged stream of a sharded group is a pure function of the seed:
// two runs write the same bytes, and the rollup holds one object per
// shard's source.
func TestRecorderByteIdenticalAcrossWorkers(t *testing.T) {
	one := shardedStream(t)
	two := shardedStream(t)
	if !bytes.Equal(one, two) {
		t.Fatalf("JSONL stream differs between two runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", one, two)
	}
	if len(one) == 0 {
		t.Fatal("empty stream")
	}
	tail, err := ReadAll(bytes.NewReader(one))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(tail.Objects) != 2 {
		t.Fatalf("rollup has %d objects, want 2 (one per shard)", len(tail.Objects))
	}
}

func TestRecorderStreamOrdered(t *testing.T) {
	raw := shardedStream(t)
	sink := &MemorySink{}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := sink.Emit(line); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	var prev int64 = -1
	for i, ev := range sink.Events {
		if ev.TS < prev {
			t.Fatalf("event %d out of order: ts %d after %d", i, ev.TS, prev)
		}
		prev = ev.TS
	}
}

// OnAlert observers see every fire/resolve event as it happens in sim
// time — the hook a failover controller hangs off — without waiting for
// the stream to drain.
func TestOnAlertObserver(t *testing.T) {
	eng := sim.NewEngine(1)
	port := &fakePort{}
	rec := NewRecorder(DefaultRules())
	rec.Source(eng, "A", "port", "nic:A", port.scrape)
	var got []AlertEvent
	rec.OnAlert(func(ev AlertEvent) { got = append(got, ev) })
	eng.Schedule(5*sim.Microsecond, func() { port.naks++ })
	// Scrape probes are daemons and cannot keep the sim alive on their
	// own: keep real events flowing past the NAK so a live scrape (not
	// just the end-of-run flush) observes and evaluates it.
	for i := 1; i <= 10; i++ {
		d := sim.Duration(i) * sim.Microsecond
		eng.Schedule(d, func() { port.frames++ })
	}
	rec.Start(2 * sim.Microsecond)
	eng.Run()
	if len(got) == 0 {
		t.Fatal("observer saw no events")
	}
	ev := got[0]
	if ev.Type != "alert" || ev.Rule != "remote-access" || ev.Object != "nic:A" {
		t.Fatalf("first event %+v, want remote-access alert on nic:A", ev)
	}
	if ev.Now < sim.Time(5*sim.Microsecond) {
		t.Fatalf("alert at %v, before the NAK at 5us", ev.Now)
	}
}

// healthData scrapes a source reporting prev, then cur and gauges,
// through a recorder with a reader and returns the payload of the second
// health line as written.
func healthData(t testing.TB, object string, prev, cur map[string]uint64, gauges map[string]float64) []byte {
	t.Helper()
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil)
	scrapes := 0
	rec.Source(eng, "A", "port", object, func() (map[string]uint64, map[string]float64) {
		if scrapes++; scrapes == 1 {
			return prev, nil
		}
		return cur, gauges
	})
	rec.StreamTo(&lineSink{})
	s := rec.scrapers[0]
	s.tick(0)
	s.tick(1)
	ev, err := Decode(s.events[1].line)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Data
}

// The health line's payload is encoding/json of the reference payload:
// the source's own maps, with the delta computed the way the recorder
// did before it kept scrapes sorted (one map lookup per counter). The
// literal cases pin the shapes a reader relies on: nil counters encode
// as null, empty gauges and a delta with no movers are omitted, keys are
// sorted.
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
			got := healthData(t, c.object, c.prev, c.cur, c.gauges)
			refDelta := make(map[string]uint64)
			for k, v := range c.cur {
				if d := v - c.prev[k]; d != 0 {
					refDelta[k] = d
				}
			}
			want, err := json.Marshal(healthPayload{Object: c.object, Counters: c.cur, Delta: refDelta, Gauges: c.gauges})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("health payload differs from the reference:\n got %s\nwant %s", got, want)
			}
			if c.wantLiteral != "" && string(got) != c.wantLiteral {
				t.Fatalf("payload\n got %s\nwant %s", got, c.wantLiteral)
			}
		})
	}
}

// A NaN or infinite gauge has no JSON form: a recorder that encodes it
// for a reader panics, as json.Marshal refuses it. Without a reader
// nothing is encoded and the scrape goes on.
func TestRecorderRejectsNonFiniteGauge(t *testing.T) {
	for _, g := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, reader := range []bool{true, false} {
			rec := NewRecorder(nil)
			rec.Source(sim.NewEngine(1), "A", "port", "nic:A", func() (map[string]uint64, map[string]float64) {
				return map[string]uint64{"out_frames": 1}, map[string]float64{"utilisation": g}
			})
			if reader {
				rec.StreamTo(&lineSink{})
			}
			func() {
				defer func() {
					if p := recover(); (p != nil) != reader {
						t.Errorf("gauge %v, reader %v: panic %v", g, reader, p)
					}
				}()
				rec.Finish()
			}()
		}
	}
}
