package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// Scenario is one instrumented regime of the test bed: what `strombench
// -scenario NAME` sweeps when no experiment is named, what its
// -metrics/-trace/-jsonl flags export, and the alert contract that
// export's JSONL stream is held to. README.md ("Scenarios") tabulates
// the registry with each regime's topology and faults.
type Scenario struct {
	Name string
	// Sweep names the tables and generators run in place of an empty
	// experiment list.
	Sweep []string
	// Export runs the regime once on its own engine seeded from
	// Options.Seed and writes the requested exports, each a pure function
	// of Options: byte-identical at every -j and -shards value.
	Export func(Options, Exports) error
	// Allow lists every alert rule the stream may trip, Require the ones
	// among them it must; any other rule firing is a regression.
	Allow, Require []string
}

// Scenarios returns the registry, in documentation order. The contracts
// are calibrated at seed 1, which is what make soak and the tests run.
func Scenarios() []Scenario {
	// What the KV storms may trip: loss bursts out-discards and
	// retry-storm, crash cycles kv-heartbeat plus qp-errors from flushed
	// QPs and remote-access from stale rkeys after a restart, frames
	// arriving at a crashed or freshly reset QP fcs-err (the NIC maps roce
	// RxDiscarded onto the counter the ICRC check feeds), incast waves and
	// recovery tails pfc-pause, ecn-marked, op-latency-p99 or the watchdog.
	kvFallout := []string{"out-discards", "retry-storm", "kv-heartbeat", "qp-errors", "remote-access",
		"watchdog", "pfc-pause", "ecn-marked", "op-latency-p99", "fcs-err"}
	return []Scenario{{
		// The 4% loss phase is deliberate; retry-storm is the per-QP view
		// of the same loss. The workload always completes: no watchdog.
		Name:    "clean",
		Sweep:   append([]string{"table1", "table2", "resources"}, generatorNames(append(Figures(), Ablations()...))...),
		Export:  exportClean,
		Allow:   []string{"out-discards", "fcs-err", "retry-storm"},
		Require: []string{"out-discards"},
	}, {
		// The flap phases are scheduled, so a silent link-flap means the
		// drop-cause breakdown went dark; the rogue trips remote-access
		// and qp-errors; a stall past the watchdog's 2 ms hold is genuine
		// when loss bursts, DMA stalls and rogue reconnects line up.
		Name:    "chaos",
		Sweep:   generatorNames(Chaos()),
		Export:  exportChaos,
		Allow:   []string{"out-discards", "fcs-err", "link-flap", "remote-access", "qp-errors", "watchdog", "retry-storm"},
		Require: []string{"out-discards", "link-flap", "remote-access", "qp-errors"},
	}, {
		// Resume-burst pool overflows may discard frames, and the
		// retransmissions those force may look like a retry storm.
		Name:    "incast",
		Sweep:   []string{"chaos-incast"},
		Export:  exportIncast,
		Allow:   []string{"pfc-pause", "ecn-marked", "out-discards", "retry-storm"},
		Require: []string{"pfc-pause", "ecn-marked"},
	}, {
		// kv-heartbeat IS the failure detector the failover controller
		// runs on.
		Name:    "kv",
		Sweep:   []string{"chaos-kv"},
		Export:  exportKV,
		Allow:   kvFallout,
		Require: []string{"kv-heartbeat", "retry-storm"},
	}, {
		// torn-read IS the torn-read detection surface.
		Name:    "kvlarge",
		Sweep:   []string{"chaos-kv-large"},
		Export:  exportKVLarge,
		Allow:   append([]string{"torn-read"}, kvFallout...),
		Require: []string{"torn-read", "kv-heartbeat"},
	}}
}

func generatorNames(gens []Generator) []string {
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = g.Name
	}
	return out
}

// ScenarioByName looks a scenario up; an unknown name is an error that
// lists the valid ones.
func ScenarioByName(name string) (Scenario, error) {
	var valid []string
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
		valid = append(valid, s.Name)
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (valid: %s)", name, strings.Join(valid, ", "))
}

// GateStream holds a JSONL stream to the scenario's alert contract: every
// Require rule fired and nothing outside Allow did.
func (s Scenario) GateStream(jsonl io.Reader) error {
	tail, err := export.ReadAll(jsonl)
	if err != nil {
		return fmt.Errorf("scenario %s: jsonl stream: %w", s.Name, err)
	}
	return s.gateTail(tail)
}

func (s Scenario) gateTail(tail *export.Tail) error {
	var bad []string
	for _, rule := range tail.FiredAlerts() {
		if !slices.Contains(s.Allow, rule) {
			bad = append(bad, "unexpected alert "+rule)
		}
	}
	for _, rule := range s.Require {
		if tail.Fired(rule) == 0 {
			bad = append(bad, "required alert "+rule+" stayed silent")
		}
	}
	return violationError("scenario "+s.Name+": jsonl stream", bad)
}

// violationError is the one verdict every gate returns: nil when vio is
// empty, otherwise an error carrying all of them.
func violationError(label string, vio []string) error {
	if len(vio) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d violations:\n%s", label, len(vio), strings.Join(vio, "\n"))
}

// Exports selects what a scenario run writes; a nil writer skips that
// export.
type Exports struct {
	Metrics io.Writer // the metrics registry as JSON
	Trace   io.Writer // the Perfetto-compatible trace as JSON
	JSONL   io.Writer // health scrapes, registry snapshots and alerts, one JSON object per line
}

func (e Exports) any() bool    { return e.traced() || e.JSONL != nil }
func (e Exports) traced() bool { return e.Metrics != nil || e.Trace != nil }

// write emits the requested exports of a finished run.
func (e Exports) write(reg *telemetry.Registry, trace *telemetry.TraceBuffer, rec *export.Recorder) error {
	if e.Metrics != nil {
		if err := reg.WriteJSON(e.Metrics); err != nil {
			return err
		}
	}
	if e.Trace != nil {
		if err := trace.WriteJSON(e.Trace); err != nil {
			return err
		}
	}
	if e.JSONL != nil {
		return rec.WriteJSONL(e.JSONL)
	}
	return nil
}

// newRecorder returns a recorder evaluating the default alert rules
// plus extra. Without sources it records (and costs) nothing.
func newRecorder(extra ...export.Rule) *export.Recorder {
	return export.NewRecorder(append(export.DefaultRules(), extra...))
}

// pairTaps is the observability side of a two-machine bed.
type pairTaps struct {
	pair *testrig.Pair
	tel  *testrig.Telemetry // nil when nothing is exported
	rec  *export.Recorder
	ex   Exports
}

// tapPair instruments the pair for whatever ex asks for. Call after
// deploying kernels and before scheduling the workload.
func tapPair(pair *testrig.Pair, ex Exports) *pairTaps {
	t := &pairTaps{pair: pair, rec: newRecorder(), ex: ex}
	if ex.any() {
		t.tel = pair.Instrument()
	}
	if ex.JSONL != nil {
		pair.RecordJSONL(t.rec, t.tel)
	}
	return t
}

// run starts the 2 µs occupancy probes and scrapes, then runs the bed.
func (t *pairTaps) run() {
	t.pair.StartProbes(t.tel, 2*sim.Microsecond)
	t.rec.Start(2 * sim.Microsecond)
	t.pair.Run()
}

func (t *pairTaps) export() error {
	if t.tel == nil {
		return nil
	}
	return t.ex.write(t.tel.Registry, t.tel.Trace, t.rec)
}

// bed is the switched test bed the storm scenarios stand on: N machines
// on the PFC/ECN switch, an invariant checker on every stack, and the
// taps ex asks for. A scenario adds its workload and fault schedule
// between newBed and Run, calling probe and record where its event
// order needs them (same-time events fire in scheduling order), then
// gates and exports.
type bed struct {
	net      *testrig.Net
	checkers []*chaos.Checker
	reg      *telemetry.Registry    // nil until something records into it
	trace    *telemetry.TraceBuffer // nil unless metrics or trace is exported
	rec      *export.Recorder
	trains   []*train
	ex       Exports
}

// train is one back-to-back train of writes and what is left of it.
type train struct {
	from int
	left int
	err  error
}

// newBed builds the bed, sharded one machine per shard when shards > 0.
// rules extend the recorder's default alert rules.
func newBed(seed int64, machines, shards int, ex Exports, rules ...export.Rule) (*bed, error) {
	var (
		net *testrig.Net
		err error
	)
	if shards > 0 {
		net, err = testrig.NewNetSharded(seed, machines, core.Profile10G(), IncastSwitchConfig(), 1<<20, shards)
	} else {
		net, err = testrig.NewNet(seed, machines, core.Profile10G(), IncastSwitchConfig(), 1<<20)
	}
	if err != nil {
		return nil, err
	}
	b := &bed{net: net, checkers: net.AttachCheckers(), rec: newRecorder(rules...), ex: ex}
	if ex.traced() {
		b.reg = telemetry.NewRegistry()
		b.trace = telemetry.NewTrace(net.SwEng)
		for i, m := range net.Machines {
			m.NIC.AttachTelemetry(b.reg, b.trace, uint32(i+1), fmt.Sprintf("m%d", i))
		}
	}
	return b, nil
}

// probe samples every NIC's occupancy signals each 2 µs when traced.
func (b *bed) probe() {
	if b.trace == nil {
		return
	}
	telemetry.Probe(b.net.SwEng, 2*sim.Microsecond, func(sim.Time) {
		for _, m := range b.net.Machines {
			m.NIC.TelemetrySample()
		}
	})
}

// record starts the recorder: whatever sources the scenario registered
// itself, plus — when streaming — every NIC and switch port and the
// registry.
func (b *bed) record(every sim.Duration) {
	if b.ex.JSONL != nil {
		b.net.RecordJSONL(b.rec)
		b.rec.Registry(b.net.SwEng, "testbed", b.reg)
	}
	b.rec.Start(every)
}

// writeTrain has machine from post its whole train of incastXfer-byte
// WRITEs on qp at time at, so the sender pushes at line rate and
// genuinely congests the receiver's egress port (a chained
// stop-and-wait flow would be latency-bound and never build a queue).
// done, if any, runs on the sender's engine with the last completion;
// so does everything else the train touches, so a sharded bed may read
// it only after the run's join. gate reports a failed or stalled train.
func (b *bed) writeTrain(from int, qp uint32, localVA, remoteVA uint64, writes int, at sim.Time, done func()) {
	src := b.net.Machines[from]
	t := &train{from: from, left: writes}
	b.trains = append(b.trains, t)
	src.Eng.ScheduleAt(at, func() {
		for w := 0; w < writes; w++ {
			src.NIC.PostWrite(qp, localVA, remoteVA, incastXfer, func(err error) {
				if err != nil {
					if t.err == nil {
						t.err = err
					}
					return
				}
				if t.left--; t.left == 0 && done != nil {
					done()
				}
			})
		}
	})
}

// gate is the end-of-run verdict: write trains that failed or stalled,
// the checkers' findings on every stack and the scenario's own, all of
// them in the error.
func (b *bed) gate(label string, own ...string) (int, error) {
	var vio []string
	for i, t := range b.trains {
		if t.err != nil {
			vio = append(vio, fmt.Sprintf("write train %d from m%d: %v", i, t.from, t.err))
		} else if t.left != 0 {
			vio = append(vio, fmt.Sprintf("write train %d from m%d stalled with %d writes left", i, t.from, t.left))
		}
	}
	for _, ck := range b.checkers {
		vio = append(vio, ck.Finish()...)
	}
	vio = append(vio, own...)
	return len(vio), violationError(label, vio)
}

func (b *bed) export() error { return b.ex.write(b.reg, b.trace, b.rec) }
