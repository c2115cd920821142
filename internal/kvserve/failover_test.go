package kvserve

import (
	"bytes"
	"errors"
	"testing"

	"strom/internal/chaos"
	"strom/internal/sim"
)

// The failover edge-case battery: each case drives the cluster through
// one nasty corner of the failure protocol and then demands the same
// ground truth — zero stale serves, zero misapplied slots, a clean
// audit — plus case-specific evidence that the intended mechanism (and
// not a lucky accident) handled it.

func TestFailoverEdgeCases(t *testing.T) {
	type harness struct {
		cl  *Cluster
		err error
	}
	cases := []struct {
		name string
		run  func(t *testing.T, h *harness)
	}{
		{
			// A stale rkey NAKs the verb, the NAK flushes the QP to ERROR,
			// and the retry must reconnect AND re-fetch the key: reconnect
			// alone would NAK forever, a refetch alone would post into an
			// ERROR-state QP.
			name: "retry-after-error-with-rotated-rkey",
			run: func(t *testing.T, h *harness) {
				c := h.cl.Client
				net := h.cl.Net
				net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
					// Key 1 lives on shard 1: primary server 1.
					if h.err = c.Put(p, 1); h.err != nil {
						return
					}
					good := c.conns[1].rkey
					c.conns[1].rkey = good + 0x5150 // simulate rotation we missed
					if h.err = c.Put(p, 1); h.err != nil {
						return
					}
					if c.conns[1].rkey == good+0x5150 {
						t.Error("stale rkey was never refreshed")
					}
				})
				net.Run()
				st := c.Stats
				if st.RKeyRefetches == 0 || st.Reconnects == 0 {
					t.Errorf("want rkey refetch + reconnect, got %+v", st)
				}
				if got := c.acked[1]; got != 2 {
					t.Errorf("acked ver = %d, want 2", got)
				}
			},
		},
		{
			// An ACK blackout makes a landed write look failed. The retry
			// must probe the slot version and suppress itself rather than
			// blindly re-apply.
			name: "duplicate-suppression-on-retried-put",
			run: func(t *testing.T, h *harness) {
				c := h.cl.Client
				net := h.cl.Net
				// Drop everything server 1 sends (ACKs, read responses)
				// for 600 µs starting at 100 µs; the op deadline is 400 µs.
				srv := net.Machines[2] // machine 2 hosts shard 1's primary
				srv.Port.SetFaults(chaos.NewFaultSite(srv.Eng, "srv1-ack-blackout",
					chaos.LinkFaults{}, []chaos.Window{{At: sim.Time(100 * sim.Microsecond), Dur: 600 * sim.Microsecond}}))
				net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
					// Start late enough in the window that the write lands and
					// its ack dies, while the retry's version probe runs after
					// the blackout heals and can observe the landed write.
					p.Sleep(350 * sim.Microsecond)
					// Key 4 is shard 1: primary on the blacked-out server.
					if h.err = c.Put(p, 4); h.err != nil {
						return
					}
					slot, found, err := c.Get(p, 4)
					if err != nil || !found {
						h.err = err
						return
					}
					if slot.Ver != 1 || !bytes.Equal(slot.Val, ValueFor(4, 1)) {
						t.Errorf("slot = %+v", slot)
					}
				})
				net.Run()
				if c.Stats.DupSuppressed == 0 {
					t.Errorf("want >=1 duplicate suppression, got %+v", c.Stats)
				}
				if c.acked[4] != 1 || c.Issued(4) != 1 {
					t.Errorf("acked=%d issued=%d, want 1/1", c.acked[4], c.Issued(4))
				}
			},
		},
		{
			// Get failover racing a crash: the primary dies with the write
			// already replicated; the Get must discover the death, fail
			// over, and serve the backup's copy at the acked version.
			name: "get-failover-races-primary-crash",
			run: func(t *testing.T, h *harness) {
				c := h.cl.Client
				net := h.cl.Net
				h.cl.CrashCycle(1, sim.Time(500*sim.Microsecond), 4*sim.Millisecond)
				net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
					if h.err = c.Put(p, 4); h.err != nil { // shard 1, both replicas up
						return
					}
					p.Sleep(700 * sim.Microsecond) // primary (server 1) is now down
					slot, found, err := c.Get(p, 4)
					if err != nil || !found {
						h.err = err
						return
					}
					if slot.Ver != c.acked[4] || !bytes.Equal(slot.Val, ValueFor(4, 1)) {
						t.Errorf("failover read = %+v, acked %d", slot, c.acked[4])
					}
					// Writes during the outage ack on the backup alone and
					// build a deficit for the crashed primary.
					for key := uint64(1); key <= 12; key++ {
						if h.err = c.Put(p, key); h.err != nil {
							return
						}
					}
					// Wait out the restart, then converge.
					p.Sleep(5 * sim.Millisecond)
					c.RepairAll(p)
				})
				net.Run()
				st := c.Stats
				if st.Failovers == 0 || st.Downs == 0 {
					t.Errorf("want failover + down transition, got %+v", st)
				}
				if st.Repairs == 0 {
					t.Errorf("want repairs after restart, got %+v", st)
				}
			},
		},
		{
			// A backup that crashes mid-run while the primary keeps
			// serving: Puts must keep acking (primary-only), and the
			// repair pass after the restart must rebuild the backup so a
			// later primary loss cannot lose data.
			name: "backup-crash-mid-write-burst",
			run: func(t *testing.T, h *harness) {
				c := h.cl.Client
				net := h.cl.Net
				// Shard 1's backup is server 2; crash it mid-burst.
				h.cl.CrashCycle(2, sim.Time(400*sim.Microsecond), 2*sim.Millisecond)
				net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
					for i := 0; i < 10; i++ {
						if h.err = c.Put(p, 4); h.err != nil { // shard 1 every time
							return
						}
						p.Sleep(200 * sim.Microsecond)
					}
					p.Sleep(3 * sim.Millisecond)
					c.RepairAll(p)
				})
				net.Run()
				if c.Stats.AckedPuts != 10 {
					t.Errorf("acked %d of 10 puts: %+v", c.Stats.AckedPuts, c.Stats)
				}
				if c.acked[4] != 10 {
					t.Errorf("acked ver = %d, want 10", c.acked[4])
				}
			},
		},
		{
			// Both replicas of a shard down at once: the Put must surface
			// unavailability (never a silent ack), and the key must still
			// converge once the servers return.
			name: "whole-shard-unavailable",
			run: func(t *testing.T, h *harness) {
				c := h.cl.Client
				net := h.cl.Net
				h.cl.CrashCycle(1, sim.Time(100*sim.Microsecond), 3*sim.Millisecond)
				h.cl.CrashCycle(2, sim.Time(100*sim.Microsecond), 3*sim.Millisecond)
				net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
					p.Sleep(300 * sim.Microsecond)
					if err := c.Put(p, 4); !errors.Is(err, ErrUnavailable) {
						t.Errorf("put with whole shard down: err = %v", err)
					}
					p.Sleep(4 * sim.Millisecond)
					c.RepairAll(p)
					if h.err = c.Put(p, 4); h.err != nil {
						return
					}
					slot, found, err := c.Get(p, 4)
					if err != nil || !found || slot.Ver != 2 {
						t.Errorf("after recovery: slot=%+v found=%v err=%v", slot, found, err)
						if h.err == nil {
							h.err = err
						}
					}
				})
				net.Run()
				if c.Stats.UnackedPuts == 0 {
					t.Errorf("want an unacked put, got %+v", c.Stats)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, cl := newTestCluster(t, 1)
			h := &harness{cl: cl}
			_ = net
			tc.run(t, h)
			if h.err != nil {
				t.Fatalf("workload error: %v", h.err)
			}
			mustZeroViolations(t, cl)
		})
	}
}
