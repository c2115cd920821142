package export

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	ev := Event{
		TS: 1234567, Seq: 9, Host: "A", Subsystem: "port", Type: "health",
		Data: json.RawMessage(`{"counters":{"fcs_err":3},"object":"nic:A"}`),
	}
	line, err := Encode(ev)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.HasSuffix(line, []byte("\n")) {
		t.Fatalf("encoded line not newline-terminated: %q", line)
	}
	if bytes.Count(line, []byte("\n")) != 1 {
		t.Fatalf("encoded line contains interior newline: %q", line)
	}
	got, err := Decode(line)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.TS != ev.TS || got.Seq != ev.Seq || got.Host != ev.Host ||
		got.Subsystem != ev.Subsystem || got.Type != ev.Type {
		t.Fatalf("round trip envelope mismatch: %+v != %+v", got, ev)
	}
	var want, have any
	if err := json.Unmarshal(ev.Data, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Data, &have); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("round trip payload mismatch: %v != %v", have, want)
	}
}

func TestEnvelopeEncodeDeterministic(t *testing.T) {
	src := &source{object: "a-to-b"}
	src.load(map[string]uint64{"z": 1, "a": 2, "m": 3}, nil)
	ev := Event{TS: 5, Host: "B", Subsystem: "link", Type: "health",
		Data: appendHealth(nil, src.object, &src.cur, nil)}
	first, err := Encode(ev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		again, err := Encode(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
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

// FuzzEnvelopeRoundTrip: any line Decode accepts must re-encode and
// re-decode to the identical event (the JSONL stream is self-describing
// and stable under a decode/encode cycle).
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add([]byte(`{"ts_ps":0,"seq":0,"host":"A","subsystem":"port","type":"health","data":{"object":"nic:A","counters":{"fcs_err":1}}}`))
	f.Add([]byte(`{"ts_ps":123456789,"seq":42,"host":"fabric","subsystem":"link","type":"health","data":{"object":"a-to-b","counters":{"out_discards":7,"out_discards_chaos":6},"delta":{"out_discards":1}}}`))
	f.Add([]byte(`{"ts_ps":500000000,"seq":3,"host":"A","subsystem":"alert","type":"alert","data":{"rule":"out-discards","object":"a-to-b","metric":"out_discards","kind":"rate","value":4.25}}`))
	f.Add([]byte(`{"ts_ps":1,"seq":1,"host":"testbed","subsystem":"alert","type":"summary","data":{"rule":"watchdog","object":"nic:A","fired":0,"active":false}}`))
	f.Add([]byte(`{"ts_ps":9,"type":"metrics","data":{"counters":{"roce_tx_packets{nic=10.0.0.1}":12}}}`))
	f.Add([]byte(`{"type":"x"}`))
	f.Add([]byte(`{"type":"x","data":null}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := Decode(line)
		if err != nil {
			return // invalid input: fine, as long as we didn't panic
		}
		enc, err := Encode(ev)
		if err != nil {
			t.Fatalf("Encode(Decode(%q)): %v", line, err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(Decode(%q))) = %v on %q", line, err, enc)
		}
		if again.TS != ev.TS || again.Seq != ev.Seq || again.Host != ev.Host ||
			again.Subsystem != ev.Subsystem || again.Type != ev.Type {
			t.Fatalf("round trip changed envelope: %+v != %+v", again, ev)
		}
		if (ev.Data == nil) != (again.Data == nil) {
			t.Fatalf("round trip changed data presence: %q != %q", again.Data, ev.Data)
		}
		if ev.Data != nil {
			var want, have any
			if err := json.Unmarshal(ev.Data, &want); err != nil {
				t.Fatalf("original data unparseable after decode: %v", err)
			}
			if err := json.Unmarshal(again.Data, &have); err != nil {
				t.Fatalf("round-tripped data unparseable: %v", err)
			}
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("round trip changed payload: %v != %v", have, want)
			}
		}
		// Re-encoding the round-tripped event must be a fixed point.
		enc2, err := Encode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
