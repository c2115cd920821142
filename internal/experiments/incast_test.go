package experiments

import (
	"testing"

	"strom/internal/sim"
)

// incastOptions sizes the incast runs for the test battery: long enough
// flows that PFC engages and DCQCN's rate cuts have room to matter.
func incastOptions() Options {
	return Options{Seed: 1, Iterations: 4, ShuffleScale: 128, StreamBytes: 2 << 20}
}

// TestIncastVictimFlowDCQCNGain is the headline congestion-spreading
// assertion: with PFC alone the victim flow (sender 0 → idle machine)
// is head-of-line blocked behind the incast pause cycles; with DCQCN
// the senders throttle before the pause watermark and the victim keeps
// the uplink. The victim must recover at least 2× throughput at K=4
// and K=8 (at K=2 the storm is too mild for a full 2×).
func TestIncastVictimFlowDCQCNGain(t *testing.T) {
	for _, k := range []int{4, 8} {
		off, err := RunIncast(incastOptions(), k, false)
		if err != nil {
			t.Fatalf("k=%d dcqcn=off: %v", k, err)
		}
		on, err := RunIncast(incastOptions(), k, true)
		if err != nil {
			t.Fatalf("k=%d dcqcn=on: %v", k, err)
		}
		// The PFC-only run must actually exhibit the mechanism under
		// test: pause frames on the wire and a head-of-line-blocked
		// victim. The DCQCN run must exhibit its mechanism too: CE
		// marks turned into CNPs.
		if off.PFCPauses == 0 {
			t.Errorf("k=%d dcqcn=off: PFC never paused", k)
		}
		if off.CNPsSent != 0 {
			t.Errorf("k=%d dcqcn=off: %d CNPs with DCQCN disabled", k, off.CNPsSent)
		}
		if on.EcnMarked == 0 || on.CNPsSent == 0 {
			t.Errorf("k=%d dcqcn=on: marks=%d cnps=%d, want both > 0", k, on.EcnMarked, on.CNPsSent)
		}
		if off.Violations != 0 || on.Violations != 0 {
			t.Errorf("k=%d: invariant violations off=%d on=%d", k, off.Violations, on.Violations)
		}
		gOff, gOn := gbps(off.VictimBytes, sim.Time(off.VictimElapsed)), gbps(on.VictimBytes, sim.Time(on.VictimElapsed))
		if gOff <= 0 || gOn <= 0 {
			t.Fatalf("k=%d: victim goodput off=%.3f on=%.3f", k, gOff, gOn)
		}
		if gOn < 2*gOff {
			t.Errorf("k=%d: victim goodput %.3f Gbps with DCQCN vs %.3f without (%.2fx, want >= 2x)",
				k, gOn, gOff, gOn/gOff)
		}
	}
}

// TestIncastSweepIdenticalAcrossJobs renders the chaos-incast generator
// through the same worker pool strombench uses and checks -j1 and -j4
// produce byte-identical output.
func TestIncastSweepIdenticalAcrossJobs(t *testing.T) {
	gens := []Generator{{Name: "chaos-incast", Run: ChaosIncastSweep}}
	render := func(jobs int) string {
		rs := RunGenerators(gens, incastOptions(), jobs)
		if rs[0].Err != nil {
			t.Fatalf("-j%d: %v", jobs, rs[0].Err)
		}
		return rs[0].Fig.String() + "\n" + rs[0].Fig.CSV()
	}
	if seq, par := render(1), render(4); seq != par {
		t.Errorf("chaos-incast differs between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq, par)
	}
}
