package testrig_test

import (
	"errors"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// A traced run ends when the untraced run ends: probes ride on daemon
// events, so switching observability on must not move the product clock.
func TestProbesDoNotMoveEndTime(t *testing.T) {
	run := func(every sim.Duration) sim.Time {
		pair, err := testrig.New(1, core.Profile10G(), fabric.DirectCable10G(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		pair.Eng.Schedule(0, func() {
			pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), 4096, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
		})
		if every > 0 {
			pair.StartProbes(pair.Instrument(), every)
		}
		return pair.Run()
	}
	bare := run(0)
	for _, every := range []sim.Duration{2 * sim.Microsecond, sim.Microsecond, 130 * sim.Nanosecond} {
		if probed := run(every); probed != bare {
			t.Errorf("run ends at %v with a %v probe, at %v without", probed, every, bare)
		}
	}
}

// Machine 255 has no address in the testbed's /24: asking for it is a
// typed error, not a silent wrap onto machine 0's identity.
func TestNetTooManyMachines(t *testing.T) {
	sw := fabric.SwitchConfig{Link: fabric.DirectCable10G()}
	if _, err := testrig.NewNet(1, core.MaxMachines+1, core.Profile10G(), sw, 1<<12); !errors.Is(err, core.ErrTooManyMachines) {
		t.Errorf("NewNet(255 machines) = %v, want ErrTooManyMachines", err)
	}
}
