package export

import (
	"errors"
	"slices"
	"testing"

	"strom/internal/raceflag"
	"strom/internal/sim"
)

// kept is the number of events the recorder holds for Drain.
func (r *Recorder) kept() int {
	n := 0
	for _, s := range r.scrapers {
		n += len(s.events)
	}
	return n
}

// TestAllocsRecorderWithoutReader pins what the KV failure detector costs
// when nobody reads its stream: over 10 000 warm ticks of its four
// sources it keeps no event and allocates nothing. The same recorder
// with a declared reader keeps one health event per source per tick and
// allocates for them, so the probe can see retention.
func TestAllocsRecorderWithoutReader(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	const ticks = 10_000
	run := func(reader Sink) (*Recorder, float64, int) {
		eng := sim.NewEngine(1)
		rec := kvDetector(eng)
		if reader != nil {
			rec.StreamTo(reader)
		}
		rec.Start(kvScrapeEvery)
		eng.RunUntil(sim.Time(100 * kvScrapeEvery)) // rule states and rate windows at size
		allocs := testing.AllocsPerRun(1, func() {
			eng.RunUntil(eng.Now().Add(ticks * kvScrapeEvery))
		})
		return rec, allocs, int(eng.Now() / sim.Time(kvScrapeEvery))
	}

	rec, allocs, n := run(nil)
	if k := rec.kept(); k != 0 {
		t.Errorf("without a reader the recorder kept %d events over %d ticks, want 0", k, n)
	}
	if allocs != 0 {
		t.Errorf("without a reader %d ticks allocated %.0f objects, want 0", ticks, allocs)
	}

	rec, allocs, n = run(&MemorySink{})
	if k := rec.kept(); k != 4*n {
		t.Errorf("with a reader the recorder kept %d events over %d ticks, want %d (one per source per tick)", k, n, 4*n)
	}
	if allocs == 0 {
		t.Error("with a reader the kept stream allocated nothing: the probe cannot see retention")
	}
}

// A recorder without a reader detects exactly what one with a reader
// does: OnAlert observers see the same transitions at the same simulated
// instants, and the tallies agree. Only the stream is missing, and
// draining it says so.
func TestRecorderWithoutReaderDetectsTheSame(t *testing.T) {
	run := func(reader Sink) (*Recorder, []AlertEvent) {
		eng := sim.NewEngine(1)
		port := &fakePort{}
		rec := NewRecorder(DefaultRules())
		rec.Source(eng, "A", "port", "nic:A", port.scrape)
		var seen []AlertEvent
		rec.OnAlert(func(ev AlertEvent) { seen = append(seen, ev) })
		for i := 1; i <= 10; i++ {
			eng.Schedule(sim.Duration(i)*sim.Microsecond, func() { port.frames++ })
		}
		eng.Schedule(5*sim.Microsecond, func() { port.naks++ })
		if reader != nil {
			rec.StreamTo(reader)
		}
		rec.Start(2 * sim.Microsecond)
		eng.Run()
		return rec, seen
	}
	sink := &MemorySink{}
	kept, keptSeen := run(sink)
	lean, leanSeen := run(nil)
	if len(keptSeen) == 0 {
		t.Fatal("no alert transitions: the run exercises nothing")
	}
	if !slices.Equal(keptSeen, leanSeen) {
		t.Errorf("observers saw\n%+v\nwithout a reader, want\n%+v", leanSeen, keptSeen)
	}
	if !slices.Equal(kept.Summaries(), lean.Summaries()) {
		t.Errorf("summaries %+v without a reader, want %+v", lean.Summaries(), kept.Summaries())
	}
	if err := kept.Drain(); err != nil || len(sink.Events) == 0 {
		t.Fatalf("drain with a reader: %v, %d events", err, len(sink.Events))
	}
	if err := lean.Drain(); !errors.Is(err, ErrNoStream) {
		t.Errorf("drain without a reader: %v, want ErrNoStream", err)
	}
	if k := lean.kept(); k != 0 {
		t.Errorf("without a reader the recorder kept %d events, want 0", k)
	}
}
