package testrig_test

import (
	"errors"
	"fmt"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// A traced run ends when the untraced run ends: probes ride on daemon
// events, so switching observability on must not move the product clock.
func TestProbesDoNotMoveEndTime(t *testing.T) {
	beds := map[string]func() (*testrig.Pair, error){}
	for _, workers := range []int{1, 2} {
		beds[fmt.Sprintf("workers=%d", workers)] = func() (*testrig.Pair, error) {
			return testrig.NewSharded(1, core.Profile10G(), fabric.DirectCable10G(), 1<<20, workers)
		}
	}
	for name, newBed := range beds {
		run := func(every sim.Duration) sim.Time {
			pair, err := newBed()
			if err != nil {
				t.Fatal(err)
			}
			pair.Eng.Schedule(0, func() {
				pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), 4096, func(err error) {
					if err != nil {
						t.Errorf("%s: write: %v", name, err)
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
				t.Errorf("%s: run ends at %v with a %v probe, at %v without", name, probed, every, bare)
			}
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
	if _, err := testrig.NewNetSharded(1, core.MaxMachines+1, core.Profile10G(), sw, 1<<12, 1); !errors.Is(err, core.ErrTooManyMachines) {
		t.Errorf("NewNetSharded(255 machines) = %v, want ErrTooManyMachines", err)
	}
}
