package telemetry

import "strom/internal/sim"

// Probe samples fn every interval of simulated time, on daemon events:
// it fires for as long as foreground work remains anywhere in the
// simulation and can never keep the simulation (or another probe)
// alive — the run loop stops once only daemons are queued, so a run
// ends at the same simulated time with and without probes. Install it
// before or after the workload is scheduled; any number coexist on one
// engine. Sampling order at equal timestamps follows scheduling order,
// like every engine event, so probe output is deterministic.
func Probe(eng *sim.Engine, every sim.Duration, fn func(now sim.Time)) {
	if eng == nil || fn == nil || every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		fn(eng.Now())
		eng.ScheduleDaemon(every, tick)
	}
	eng.ScheduleDaemon(every, tick)
}
