package export

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"strom/internal/sim"
)

// lineSink keeps the lines a recorder drains, as written.
type lineSink struct{ lines [][]byte }

func (s *lineSink) Emit(line []byte) error {
	s.lines = append(s.lines, line)
	return nil
}

// recordLines runs a recorder over one source on host that reports
// counters and gauges at every scrape, scraping twice before Drain, and
// returns the lines it writes.
func recordLines(t testing.TB, host, object string, counters map[string]uint64, gauges map[string]float64) [][]byte {
	t.Helper()
	eng := sim.NewEngine(1)
	rec := NewRecorder(DefaultRules())
	rec.Source(eng, host, "port", object, func() (map[string]uint64, map[string]float64) { return counters, gauges })
	sink := &lineSink{}
	rec.StreamTo(sink)
	rec.Start(sim.Microsecond)
	eng.Schedule(sim.Microsecond, func() {})
	eng.Run()
	if err := rec.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return sink.lines
}

// roundTrip decodes one line the recorder wrote and checks that Event
// encodes the decoded envelope back to the same bytes: the recorder's
// own encoding of the envelope is Event's. A line holding the escape
// \ufffd is exempt from the byte check: encoding/json writes invalid
// UTF-8 that way, and it decodes to U+FFFD, which it writes as is.
func roundTrip(t testing.TB, line []byte) Event {
	t.Helper()
	if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
		t.Fatalf("line is not one newline-terminated line: %q", line)
	}
	ev, err := Decode(line)
	if err != nil {
		t.Fatalf("Decode(%q): %v", line, err)
	}
	again, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("json.Marshal(Decode(%q)): %v", line, err)
	}
	if !bytes.Equal(append(again, '\n'), line) && !bytes.Contains(line, []byte(`\ufffd`)) {
		t.Fatalf("Event encodes the decoded line differently:\n got %s\nwant %s", again, line)
	}
	return ev
}

func TestEnvelopeRoundTrip(t *testing.T) {
	lines := recordLines(t, "A", "nic:A", map[string]uint64{"fcs_err": 3}, map[string]float64{"outstanding_ops": 1.5})
	var health int
	for i, line := range lines {
		ev := roundTrip(t, line)
		if ev.Seq != uint64(i) {
			t.Errorf("line %d has seq %d: one segment numbers its events from 0", i, ev.Seq)
		}
		if ev.Type != "health" {
			continue
		}
		health++
		if ev.Host != "A" || ev.Subsystem != "port" {
			t.Errorf("health envelope %+v, want host A, subsystem port", ev)
		}
		var p healthPayload
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Object != "nic:A" || p.Counters["fcs_err"] != 3 || p.Gauges["outstanding_ops"] != 1.5 {
			t.Errorf("health payload %+v, want nic:A with fcs_err 3 and outstanding_ops 1.5", p)
		}
	}
	if health < 2 {
		t.Fatalf("%d health lines, want one per scrape", health)
	}
}

func TestEnvelopeEncodeDeterministic(t *testing.T) {
	counters := map[string]uint64{"z": 1, "a": 2, "m": 3}
	first := bytes.Join(recordLines(t, "B", "a-to-b", counters, nil), nil)
	for i := 0; i < 8; i++ {
		if again := bytes.Join(recordLines(t, "B", "a-to-b", counters, nil), nil); !bytes.Equal(first, again) {
			t.Fatalf("encoding not deterministic:\n%s\n%s", first, again)
		}
	}
	// Map keys must come out sorted.
	if !bytes.Contains(first, []byte(`{"a":2,"m":3,"z":1}`)) {
		t.Fatalf("payload keys not sorted: %s", first)
	}
}

func TestDecodeRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"   ",
		"not json",
		`{"ts_ps":1}`,                   // missing type
		`{"ts_ps":-4,"type":"health"}`,  // negative timestamp
		`{"ts_ps":"x","type":"health"}`, // wrong type
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", bad)
		}
	}
}

// FuzzEnvelopeRoundTrip: whatever a source names and reports, every line
// the recorder writes decodes, Event encodes it back to the same bytes,
// and the health payload carries what the source reported.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("A", "nic:A", "fcs_err", uint64(1), math.Float64bits(0))
	f.Add("fabric", "a-to-b", "out_discards", uint64(7), math.Float64bits(0.25))
	f.Add("A", "nic:A", "remote_access_naks", uint64(3), math.Float64bits(4.25))
	f.Add("testbed", "nic:\"B\"", "out_frames", uint64(1<<64-1), math.Float64bits(1e21))
	f.Add("m1", "kvsrv:0", `kv_op_latency_ps{op="get"}`, uint64(1)<<53, math.Float64bits(-1e-7))
	f.Add("a<b>& ", "o\xff", "k\n\t", uint64(0), math.Float64bits(5e-324))
	f.Add("", "", "", uint64(0), math.Float64bits(math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, host, object, metric string, c, gbits uint64) {
		g := math.Float64frombits(gbits)
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return // no JSON form: the recorder refuses it (TestRecorderRejectsNonFiniteGauge)
		}
		lines := recordLines(t, host, object, map[string]uint64{metric: c}, map[string]float64{metric: g})
		var health int
		for _, line := range lines {
			ev := roundTrip(t, line)
			if ev.Type != "health" {
				continue
			}
			health++
			var p healthPayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatalf("health payload %s: %v", ev.Data, err)
			}
			if !utf8.ValidString(host + object + metric) {
				continue // encoding/json writes invalid UTF-8 as U+FFFD
			}
			if ev.Host != host || p.Object != object || p.Counters[metric] != c || p.Gauges[metric] != g {
				t.Fatalf("health line %s does not carry host %q, object %q, %s = %d / %v", line, host, object, metric, c, g)
			}
		}
		if health == 0 {
			t.Fatal("no health line")
		}
	})
}
