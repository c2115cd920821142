package export

import (
	"bytes"
	"encoding/json"
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
