package export

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"strom/internal/sim"
)

// rollupFixture builds a recorder run with a firing alert and returns
// its JSONL bytes.
func rollupFixture(t *testing.T) []byte {
	t.Helper()
	eng := sim.NewEngine(3)
	port := &fakePort{}
	rec := NewRecorder(DefaultRules())
	rec.Source(eng, "A", "port", "nic:A", port.scrape)
	for i := 1; i <= 6; i++ {
		d := sim.Duration(i) * sim.Microsecond
		eng.Schedule(d, func() { port.frames++ })
	}
	eng.Schedule(4*sim.Microsecond, func() { port.naks += 2 })
	var buf bytes.Buffer
	rec.StreamTo(NewWriterSink(&buf))
	rec.Start(1 * sim.Microsecond)
	eng.Run()
	if err := rec.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return buf.Bytes()
}

func TestRollupReadAllAndRender(t *testing.T) {
	raw := rollupFixture(t)
	tail, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if tail.Events == 0 || len(tail.Objects) != 1 {
		t.Fatalf("tail = %d events, %d objects; want events and exactly one object", tail.Events, len(tail.Objects))
	}
	o := tail.Objects[0]
	if o.Object != "nic:A" || o.Scrapes < 3 {
		t.Fatalf("rollup %+v, want nic:A with several scrapes", o)
	}
	if o.Final["remote_access_naks"] != 2 {
		t.Fatalf("final remote_access_naks = %d, want 2", o.Final["remote_access_naks"])
	}
	if tail.Fired("remote-access") == 0 {
		t.Fatal("Fired(remote-access) = 0, want >= 1")
	}
	if got := tail.FiredAlerts(); len(got) != 1 || got[0] != "remote-access" {
		t.Fatalf("FiredAlerts() = %v, want [remote-access]", got)
	}

	var out strings.Builder
	tail.Render(&out)
	text := out.String()
	for _, want := range []string{"nic:A", "remote_access_naks=2", "FIRE", "remote-access", "summary:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render output missing %q:\n%s", want, text)
		}
	}
}

func TestRollupUnexpectedAlerts(t *testing.T) {
	raw := rollupFixture(t)
	tail, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if got := tail.UnexpectedAlerts(nil); len(got) != 1 || got[0] != "remote-access" {
		t.Fatalf("UnexpectedAlerts(nil) = %v, want [remote-access]", got)
	}
	if got := tail.UnexpectedAlerts(regexp.MustCompile(`remote-access`)); len(got) != 0 {
		t.Fatalf("UnexpectedAlerts(allow remote-access) = %v, want none", got)
	}
}

func TestRollupRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("{\"type\":\"health\",\"ts_ps\":1,\"data\":{\"object\":\"x\"}}\nnot json\n")); err == nil {
		t.Fatal("ReadAll accepted an undecodable line")
	}
}
