package export

import (
	"fmt"
	"testing"

	"strom/internal/sim"
)

// BenchmarkScrapeTick is the wall-clock cost of one scrape point of the
// replicated-KV testbed (the kv-* benchmark workloads): three server
// sources reporting a heartbeat counter and a serving gauge, one client
// source reporting five counters, all on one engine, under the default
// rules plus the heartbeat watchdog (kvserve.HeartbeatRule, restated here
// because kvserve imports this package). One op is one tick of all four
// sources. Events are retained, as they are in a run nobody drains, so
// the ticks run in recorder lifetimes of 2 000 — about one kv-inline
// round — and not as one stream that grows with b.N.
func BenchmarkScrapeTick(b *testing.B) {
	const every = 20 * sim.Microsecond
	const lifetime = 2000
	heartbeat := Rule{Name: "kv-heartbeat", Metric: "kv_heartbeats", Kind: NoProgress, For: 400 * sim.Microsecond, While: "kv_serving"}
	b.ReportAllocs()
	for done := 0; done < b.N; done += lifetime {
		eng := sim.NewEngine(1)
		rec := NewRecorder(append(DefaultRules(), heartbeat))
		var beats uint64
		for s := 0; s < 3; s++ {
			rec.Source(eng, fmt.Sprintf("m%d", s+1), "kv", fmt.Sprintf("kvsrv:%d", s), func() (map[string]uint64, map[string]float64) {
				beats++
				return map[string]uint64{"kv_heartbeats": beats}, map[string]float64{"kv_serving": 1}
			})
		}
		rec.Source(eng, "m0", "kvclient", "kvcli", func() (map[string]uint64, map[string]float64) {
			return map[string]uint64{
				"kv_torn_detected":  0,
				"kv_torn_retries":   0,
				"kv_torn_failover":  0,
				"kv_spilled_reads":  beats,
				"kv_orphans_reaped": 0,
			}, nil
		})
		rec.Start(every)
		eng.ScheduleAt(sim.Time(min(lifetime, b.N-done))*sim.Time(every), func() {})
		eng.Run()
	}
}
