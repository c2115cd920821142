package kvserve

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/sim"
)

// The large-value failover battery (DESIGN.md §9.5): the publish-window
// crash, the mid-repair backup read, rkey rotation with a Get's pair in
// flight, and the torn class of a replayed pair. Key 4 throughout: shard
// 1, primary server 1 (machine 2), backup server 2 (machine 3).

// The lengths a fabric.FrameScript tells an extent WRITE's frame from a
// slot WRITE's by.
var (
	extentFrame = packet.WriteFrameLen(ExtentSize)
	slotFrame   = packet.WriteFrameLen(SlotSize)
)

// publishWindow scripts the switch egress toward a server: the next
// extent frame goes through, the slot frame behind it gets verdict v, and
// do runs at that instant — inside the window in which the replica holds
// the extent's bytes and no slot that names them. With extent and slot
// posted back to back that window is the gap between two frames, so this
// is the only way into it.
func publishWindow(cl *Cluster, server int, v fabric.Verdict, do func()) *fabric.FrameScript {
	s := &fabric.FrameScript{Steps: []fabric.FrameStep{
		{Len: extentFrame},
		{Len: slotFrame, Verdict: v, Do: do},
	}}
	cl.Net.Sw.SetEgressFaults(cl.Servers[server].M.Index, s)
	return s
}

// replicaExtentVer reads the version stamped in key's extent image
// straight out of a server's memory (0 when the image is not key's).
func replicaExtentVer(t *testing.T, cl *Cluster, server int, key uint64) uint64 {
	t.Helper()
	srv := cl.Servers[server]
	va := cl.Lay.ExtentAddr(srv.ArenaFor(cl.Lay, cl.Lay.ShardOf(key)), cl.Client.ext[key].off)
	b, err := srv.M.NIC.Memory().ReadVirt(va, ExtentSize)
	if err != nil {
		t.Fatal(err)
	}
	if ext := DecodeExtent(b); !ext.Torn && ext.Key == key {
		return ext.Ver
	}
	return 0
}

// A crash lands exactly between the extent write and the slot publish:
// the slot frame is lost in the fabric and the primary dies. What the
// client learns of the extent WRITE ahead of it differs by case — acked;
// landed with its ACK lost; lost itself — and only the first is certain,
// so the ledger holds an ambiguous extent as a possible orphan (DESIGN
// §9.5): whatever the primary holds must never be served, and the next
// spill over it counts the reap.
func TestCrashBetweenExtentWriteAndPublish(t *testing.T) {
	ackFrame := (&packet.Packet{AETH: &packet.AETH{}}).BufferLen()
	for _, tc := range []struct {
		name    string
		extent  fabric.Verdict // the extent frame's fate on the way to the primary
		ackLost bool           // the primary's first ACK dies on its uplink
		holds   uint64         // the extent version in the primary's memory after the crash
	}{
		{name: "acked", holds: 1},
		{name: "ack-lost", ackLost: true, holds: 1},
		{name: "extent-lost", extent: fabric.Verdict{Drop: true}, holds: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, cl := newLargeTestCluster(t, 1)
			c := cl.Client
			const key = 4
			primary := cl.Servers[1].M
			// The extent frame is a propagation delay ahead of the slot
			// frame: crash once it has landed, long before anything is
			// retransmitted.
			window := publishWindow(cl, 1, fabric.Verdict{Drop: true}, func() {
				primary.Eng.Schedule(2*sim.Microsecond, primary.NIC.Crash)
			})
			window.Steps[0].Verdict = tc.extent
			if tc.ackLost {
				primary.Port.SetFaults(&fabric.FrameScript{Steps: []fabric.FrameStep{{Len: ackFrame, Verdict: fabric.Verdict{Drop: true}}}})
			}
			var runErr error
			net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
				// The primary dies without a published slot; the backup
				// still acks, so the put succeeds.
				if runErr = c.PutLarge(p, key); runErr != nil {
					return
				}
				if c.acked[key] != 1 {
					t.Errorf("acked = %d, want 1 (backup ack)", c.acked[key])
				}
				if !c.Down(1) {
					t.Error("primary not marked down after publish-window crash")
				}
				// The orphan, as the server's memory has it and as the
				// ledger does.
				if ev, sv := replicaExtentVer(t, cl, 1, key), replicaVer(t, cl, 1, key); ev != tc.holds || sv != 0 {
					t.Errorf("primary holds extent ver %d under slot ver %d, want %d/0", ev, sv, tc.holds)
				}
				if ref := c.ext[key]; ref.wrote[1] != 1 || ref.pub[1] != 0 {
					t.Errorf("ledger has the primary at wrote %d / published %d, want 1/0", ref.wrote[1], ref.pub[1])
				}
				// It is unreachable: the primary's slot is empty, so a
				// read there is stale-rerouted to the backup.
				slot, found, err := c.Get(p, key)
				if err != nil || !found {
					runErr = err
					return
				}
				if !bytes.Equal(slot.Val, LargeValueFor(key, 1)) {
					t.Errorf("get served %d B, want committed v1", len(slot.Val))
				}
				// Primary returns; the next spill overwrites the orphan in
				// place and must count the reap.
				primary.NIC.Restart()
				p.Sleep(100 * sim.Microsecond)
				c.MarkUp(1)
				if runErr = c.PutLarge(p, key); runErr != nil {
					return
				}
				slot, found, err = c.Get(p, key)
				if err != nil || !found {
					runErr = err
					return
				}
				if !bytes.Equal(slot.Val, LargeValueFor(key, 2)) {
					t.Errorf("get after reap served %d B, want v2", len(slot.Val))
				}
			})
			net.Run()
			if runErr != nil {
				t.Fatal(runErr)
			}
			if len(window.Steps) != 0 {
				t.Fatal("no slot frame followed an extent frame toward the primary")
			}
			st := c.Stats
			if st.OrphansReaped != 1 {
				t.Errorf("orphans reaped = %d, want 1: %+v", st.OrphansReaped, st)
			}
			if st.TornServed != 0 {
				t.Errorf("orphan content served: %+v", st)
			}
			if st.Failovers == 0 {
				t.Error("get did not fail over while the primary was down")
			}
			mustZeroViolations(t, cl)
		})
	}
}

// A stale rkey NAKs the extent WRITE, and the NAK flushes the slot WRITE
// queued behind it. The replica's error is the extent's — remote access:
// nothing was applied, so the ledger records no possible orphan, and the
// key needs refetching. The retry is a reconnect, the version probe and
// the two WRITEs again.
func TestSpilledPutStaleRKey(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	const key = 4
	var runErr error
	var posted, wroteAtProbe uint64
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if runErr = c.PutLarge(p, key); runErr != nil {
			return
		}
		c.conns[1].rkey += 0x5150 // a rotation the client missed
		// The ledger as the retry's version probe (a READ request: a
		// WRITE's headers and no payload) leaves for the primary.
		cl.Net.Sw.SetEgressFaults(cl.Servers[1].M.Index, &fabric.FrameScript{Steps: []fabric.FrameStep{{
			Len: packet.WriteFrameLen(0),
			Do:  func() { wroteAtProbe = c.ext[key].wrote[1] },
		}}})
		before := c.m.NIC.Stack().Stats().OpsPosted
		if runErr = c.PutLarge(p, key); runErr != nil {
			return
		}
		posted = c.m.NIC.Stack().Stats().OpsPosted - before
		runErr = c.PutLarge(p, key)
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := c.Stats
	// One refetch for the NAK's classification, one with the reconnect.
	if st.Retries != 1 || st.Reconnects != 1 || st.RKeyRefetches != 2 {
		t.Errorf("retries %d, reconnects %d, rkey refetches %d, want 1/1/2", st.Retries, st.Reconnects, st.RKeyRefetches)
	}
	if posted != 4+1+2 {
		t.Errorf("put posted %d verbs, want the first attempt's 4, the probe and the replica's 2 again", posted)
	}
	if wroteAtProbe != 1 || st.OrphansReaped != 0 || st.DupSuppressed != 0 {
		t.Errorf("a NAK'd extent is not applied and no possible orphan, yet the ledger had ver %d at the probe: %+v", wroteAtProbe, st)
	}
	mustZeroViolations(t, cl)
}

// putUnackedV2 leaves key at committed v1 on both replicas with v2 issued
// and owed to both: they died under it and are back, marked up, their
// connections re-established by an inline Put of another key of the
// shard, so a repair goes through first try.
func putUnackedV2(t *testing.T, p *sim.Process, cl *Cluster, key uint64) error {
	c := cl.Client
	if err := c.PutLarge(p, key); err != nil {
		return err
	}
	cl.Servers[1].M.NIC.Crash()
	cl.Servers[2].M.NIC.Crash()
	if err := c.PutLarge(p, key); !errors.Is(err, ErrUnavailable) {
		t.Errorf("put with both replicas down: err = %v", err)
	}
	if c.acked[key] != 1 || c.Issued(key) != 2 {
		t.Errorf("acked=%d issued=%d, want 1/2", c.acked[key], c.Issued(key))
	}
	cl.Servers[1].M.NIC.Restart()
	cl.Servers[2].M.NIC.Restart()
	p.Sleep(100 * sim.Microsecond)
	c.MarkUp(1)
	c.MarkUp(2)
	return c.Put(p, 1)
}

// A Get finds the primary half-repaired: the repair's extent frame
// reached it, the slot frame behind it was lost and the primary went
// down and came back before the repair could run again. The replica is
// torn (extent ahead of slot). The reader must detect it, exhaust the
// torn budget, and fail over to the backup's committed version — never
// serve the half-repaired state.
func TestBackupGetMidRepair(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	const key = 4
	primary := cl.Servers[1].M
	var window *fabric.FrameScript
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if runErr = putUnackedV2(t, p, cl, key); runErr != nil {
			return
		}
		window = publishWindow(cl, 1, fabric.Verdict{Drop: true}, func() {
			primary.Eng.Schedule(2*sim.Microsecond, primary.NIC.Crash)
		})
		c.repairServer(p, 1)
		if !c.Down(1) || c.deficits[1][key] != 2 {
			t.Errorf("interrupted repair: down=%v deficits=%v", c.Down(1), c.deficits)
		}
		primary.NIC.Restart()
		p.Sleep(100 * sim.Microsecond)
		c.MarkUp(1)
		if ev, sv := replicaExtentVer(t, cl, 1, key), replicaVer(t, cl, 1, key); ev != 2 || sv != 1 {
			t.Errorf("half-repaired primary holds extent ver %d under slot ver %d, want 2/1", ev, sv)
		}
		slot, found, err := c.Get(p, key)
		if err != nil || !found {
			runErr = fmt.Errorf("mid-repair get: found=%v: %w", found, err)
			return
		}
		if !bytes.Equal(slot.Val, LargeValueFor(key, 1)) {
			t.Errorf("mid-repair get served %d B, want committed v1 from backup", len(slot.Val))
		}
		c.RepairAll(p)
		slot, found, err = c.Get(p, key)
		if err != nil || !found {
			runErr = err
			return
		}
		if !bytes.Equal(slot.Val, LargeValueFor(key, 2)) {
			t.Errorf("post-repair get served %d B, want v2", len(slot.Val))
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if window == nil || len(window.Steps) != 0 {
		t.Fatal("repair never opened the publish window")
	}
	st := c.Stats
	if st.TornDetected == 0 || st.TornFailovers == 0 || st.TornOverwrite == 0 {
		t.Errorf("mid-repair read was not detected as torn: %+v", st)
	}
	if st.Failovers == 0 {
		t.Error("mid-repair get did not fail over to the backup")
	}
	if st.TornServed != 0 {
		t.Errorf("half-repaired state served: %+v", st)
	}
	mustZeroViolations(t, cl)
}

// While the fabric holds a repair's slot frame back, the primary has the
// new extent under the old slot — and a Get from a second client process
// still cannot see that: its slot READ is behind the slot WRITE on the
// same QP, the responder NAKs the gap, go-back-N delivers the slot, and
// the Get is served the repaired version. PSN order closes the window to
// every reader that shares the writer's connection.
func TestGetBehindHeldSlotFrame(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	const key = 4
	var window *fabric.FrameScript
	var readerErr, runErr error
	var held, read, repaired sim.Time
	reader := func(p *sim.Process) {
		held = p.Now()
		p.Sleep(2 * sim.Microsecond) // the extent frame has landed
		if ev, sv := replicaExtentVer(t, cl, 1, key), replicaVer(t, cl, 1, key); ev != 2 || sv != 1 {
			t.Errorf("mid-repair primary holds extent ver %d under slot ver %d, want 2/1", ev, sv)
		}
		slot, found, err := c.Get(p, key)
		if err != nil || !found {
			readerErr = fmt.Errorf("found=%v: %w", found, err)
			return
		}
		read = p.Now()
		if !bytes.Equal(slot.Val, LargeValueFor(key, 2)) {
			t.Errorf("get behind the held slot served %d B, want repaired v2", len(slot.Val))
		}
	}
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if runErr = putUnackedV2(t, p, cl, key); runErr != nil {
			return
		}
		naks := cl.Servers[1].M.NIC.Stack().Stats().NaksSent
		window = publishWindow(cl, 1, fabric.Verdict{Delay: 300 * sim.Microsecond}, func() {
			net.Machines[0].Eng.Go("kv-reader", reader)
		})
		c.repairServer(p, 1)
		repaired = p.Now()
		if n := cl.Servers[1].M.NIC.Stack().Stats().NaksSent - naks; n != 1 {
			t.Errorf("primary sent %d NAKs, want the one for the gap the held frame left", n)
		}
		c.RepairAll(p)
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readerErr != nil {
		t.Fatalf("get behind the held slot: %v", readerErr)
	}
	if window == nil || len(window.Steps) != 0 {
		t.Fatal("repair never opened the publish window")
	}
	// Both were done long before the held frame itself arrived.
	if limit := held.Add(30 * sim.Microsecond); read == 0 || read > limit || repaired > limit {
		t.Errorf("slot held at %v, repair done %v, get done %v: the get did not pull the slot in", held, repaired, read)
	}
	if st := c.Stats; st.TornDetected != 0 || st.Failovers != 0 || st.TornServed != 0 {
		t.Errorf("reader saw the window: %+v", st)
	}
	mustZeroViolations(t, cl)
}

// The frame lengths of a spilled Get's pair: the consistency RPC toward
// the server, the slot READ's response back.
var (
	rpcFrame      = packet.WriteFrameLen(24) // the parameter block
	slotRespFrame = (&packet.Packet{AETH: &packet.AETH{}, Payload: make([]byte, SlotSize)}).BufferLen()
)

// The server crashes with a Get's pair in flight — its RPC frame is on
// the wire — and restarts 50 µs later: host memory (slots, extents)
// survives, rkeys rotate, QPs die. Both verbs miss their deadline; the
// transport retry must reconnect, re-fetch the key and complete the Get
// on the same replica through the public API, without calling it torn.
func TestRKeyRotationMidExtentRead(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	const key = 4
	srv := cl.Servers[1].M
	var crash *fabric.FrameScript
	var runErr error
	var pairs uint64
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if runErr = c.PutLarge(p, key); runErr != nil {
			return
		}
		crash = &fabric.FrameScript{Steps: []fabric.FrameStep{{Len: rpcFrame, Do: func() {
			srv.NIC.Crash()
			srv.Eng.Schedule(50*sim.Microsecond, srv.NIC.Restart)
		}}}}
		cl.Net.Sw.SetEgressFaults(srv.Index, crash)
		before := c.Stats.SpilledReads
		slot, found, err := c.Get(p, key)
		if err != nil || !found {
			runErr = fmt.Errorf("found=%v: %w", found, err)
			return
		}
		pairs = c.Stats.SpilledReads - before
		if !bytes.Equal(slot.Val, LargeValueFor(key, 1)) {
			t.Errorf("mid-rotation get served %d B, want v1", len(slot.Val))
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if crash == nil || len(crash.Steps) != 0 {
		t.Fatal("no RPC frame left for the primary")
	}
	st := c.Stats
	if st.Retries != 1 || st.Reconnects != 1 || st.RKeyRefetches == 0 || pairs != 2 {
		t.Errorf("want one retry of the pair with a reconnect and rkey refetch, got %d pairs: %+v", pairs, st)
	}
	if st.TornDetected != 0 || st.Failovers != 0 {
		t.Errorf("transport trouble misclassified as torn, or served elsewhere: %+v", st)
	}
	mustZeroViolations(t, cl)
}

// A pair's slot READ response is lost while a PutLarge of the same key,
// posted behind the pair, publishes v2. The responder re-executes the
// re-requested READ from live memory but only ACKed the RPC, so the pair
// returns slot v2 over the extent v1 the kernel sent: once. The read is
// detected and retried, the retry serves v2, and the class is
// TornOverwrite, not TornStaleRep — nothing is stale on this replica.
func TestTornClassOfReplayedPair(t *testing.T) {
	// The lost response is re-requested after two 500 µs retransmission
	// timeouts (the writer's ACKs restart the first): past the tests'
	// usual 400 µs op deadline.
	net, cl := newTestClusterCfg(t, 1, func(cfg *Config) {
		cfg.Sessions = 2
		cfg.OpDeadline = 2 * sim.Millisecond
	})
	c := cl.Client
	const key = 4
	primary := cl.Servers[1].M
	var lost *fabric.FrameScript
	var readerErr, writerErr error
	var served []byte
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if readerErr = c.PutLarge(p, key); readerErr != nil {
			return
		}
		lost = &fabric.FrameScript{Steps: []fabric.FrameStep{{Len: slotRespFrame, Verdict: fabric.Verdict{Drop: true}}}}
		primary.Port.SetFaults(lost)
		net.Machines[0].Eng.Go("kv-writer", func(p *sim.Process) {
			p.Sleep(20 * sim.Microsecond) // the pair has executed
			writerErr = c.PutLarge(p, key)
		})
		slot, found, err := c.Get(p, key)
		if err != nil || !found {
			readerErr = fmt.Errorf("found=%v: %w", found, err)
			return
		}
		served = slot.Val
	})
	net.Run()
	if readerErr != nil || writerErr != nil {
		t.Fatalf("reader: %v, writer: %v", readerErr, writerErr)
	}
	if lost == nil || len(lost.Steps) != 0 {
		t.Fatal("no slot READ response left the primary")
	}
	if !bytes.Equal(served, LargeValueFor(key, 2)) {
		t.Errorf("served %d B, want v2", len(served))
	}
	st := c.Stats
	if st.TornDetected != 1 || st.TornRetries != 1 || st.TornFailovers != 0 {
		t.Errorf("want one torn read detected and retried on the primary: %+v", st)
	}
	if st.TornOverwrite != 1 || st.TornStaleRep != 0 {
		t.Errorf("replayed READ classed overwrite %d, stale-replica %d, want 1/0", st.TornOverwrite, st.TornStaleRep)
	}
	if dup := primary.NIC.Stack().Stats().DupReadCacheHits; dup != 1 {
		t.Errorf("primary re-executed %d duplicate READs, want 1", dup)
	}
	mustZeroViolations(t, cl)
}
