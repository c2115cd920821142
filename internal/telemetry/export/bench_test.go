package export

import (
	"fmt"
	"testing"

	"strom/internal/sim"
)

// kvScrapeEvery is the replicated-KV testbed's scrape interval.
const kvScrapeEvery = 20 * sim.Microsecond

// kvDetector is the recorder of the replicated-KV failure detector (the
// kv-* benchmark workloads): three server sources reporting a heartbeat
// counter and a serving gauge, one client source reporting five
// counters, all on eng and each reusing its maps as the KV sources do
// (ScrapeFunc), under the default rules plus the heartbeat watchdog
// (kvserve.HeartbeatRule, restated here because kvserve imports this
// package).
func kvDetector(eng *sim.Engine) *Recorder {
	heartbeat := Rule{Name: "kv-heartbeat", Metric: "kv_heartbeats", Kind: NoProgress, For: 400 * sim.Microsecond, While: "kv_serving"}
	rec := NewRecorder(append(DefaultRules(), heartbeat))
	var beats uint64
	for s := 0; s < 3; s++ {
		c, g := map[string]uint64{}, map[string]float64{}
		rec.Source(eng, fmt.Sprintf("m%d", s+1), "kv", fmt.Sprintf("kvsrv:%d", s), func() (map[string]uint64, map[string]float64) {
			beats++
			c["kv_heartbeats"], g["kv_serving"] = beats, 1
			return c, g
		})
	}
	cli := map[string]uint64{}
	rec.Source(eng, "m0", "kvclient", "kvcli", func() (map[string]uint64, map[string]float64) {
		cli["kv_torn_detected"], cli["kv_torn_retries"], cli["kv_torn_failover"] = 0, 0, 0
		cli["kv_spilled_reads"], cli["kv_orphans_reaped"] = beats, 0
		return cli, nil
	})
	return rec
}

// BenchmarkScrapeTick is the wall-clock cost of one scrape point of the
// KV failure detector (kvDetector). One op is one tick of all four
// sources. "reader" declares a reader, so every payload is encoded and
// kept as it is for an exported stream; the ticks run in recorder
// lifetimes of 2 000 — about one kv-inline round — and not as one stream
// that grows with b.N. "no-reader" is the detector as the KV sweeps and
// the benchmark run it: rules only.
func BenchmarkScrapeTick(b *testing.B) {
	const lifetime = 2000
	for _, tc := range []struct {
		name   string
		reader bool
	}{{"reader", true}, {"no-reader", false}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += lifetime {
				eng := sim.NewEngine(1)
				rec := kvDetector(eng)
				if tc.reader {
					rec.StreamTo(&MemorySink{})
				}
				rec.Start(kvScrapeEvery)
				eng.ScheduleAt(sim.Time(min(lifetime, b.N-done))*sim.Time(kvScrapeEvery), func() {})
				eng.Run()
			}
		})
	}
}
