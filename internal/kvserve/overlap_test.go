package kvserve

import (
	"bytes"
	"fmt"
	"testing"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/mr"
	"strom/internal/raceflag"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// The overlapped-attempt battery (DESIGN.md §16.2, §17.2): a write's
// first attempt is one posting stage — every replica's WRITEs, a spilled
// value's extent and slot back to back, go out at once — so a Put and a
// PutLarge each cost one round trip; a replica that fails it retries
// alone. A spilled Get's slot READ and extent read are one stage as well.
// Key 4 throughout unless stated: shard 1, primary server 1
// (machine 2), backup server 2 (machine 3).

// replicaVer reads key's slot version straight out of a server's memory.
func replicaVer(t *testing.T, cl *Cluster, server int, key uint64) uint64 {
	t.Helper()
	srv := cl.Servers[server]
	va := cl.Lay.SlotAddr(srv.TableFor(cl.Lay, cl.Lay.ShardOf(key)), key)
	b, err := srv.M.NIC.Memory().ReadVirt(va, SlotSize)
	if err != nil {
		t.Fatal(err)
	}
	return DecodeSlot(b).Ver
}

// On a clean cluster a Put takes one slot WRITE's round trip and a
// PutLarge one extent WRITE's — the slot rides right behind it —
// whichever replica count: measured against the one bare verb on the
// same bed, after a warm-up so both sides run on warm TLBs and resolved
// neighbours. The verbs are all still there: 2 per Put, 4 per PutLarge.
func TestOverlappedPutCostsOneRoundTrip(t *testing.T) {
	net, cl := newTestClusterCfg(t, 1, func(cfg *Config) { cfg.BlastBytes = 4096 })
	c := cl.Client
	const key = 4
	blastVA, _, _ := cl.BlastTarget(1)
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		for _, tc := range []struct {
			put           func(*sim.Process, uint64) error
			nbytes, verbs int
		}{{c.Put, SlotSize, 2}, {c.PutLarge, ExtentSize, 4}} {
			if runErr = tc.put(p, key); runErr != nil { // warm-up
				return
			}
			cn := &c.conns[1]
			start := p.Now()
			if runErr = c.m.NIC.Do(p, cn.qpc, core.Verb{Op: core.OpWrite, LocalVA: uint64(c.pool[0].ext), RemoteVA: uint64(blastVA), Len: tc.nbytes, RKey: cn.rkey, Deadline: start.Add(c.deadline)}); runErr != nil {
				return
			}
			ref := p.Now().Sub(start)
			start, posted := p.Now(), c.m.NIC.Stack().Stats().OpsPosted
			if runErr = tc.put(p, key); runErr != nil {
				return
			}
			got := p.Now().Sub(start)
			if limit := ref + ref/5; got >= limit {
				t.Errorf("%d B: put took %v, want < 1.2 x %v of one bare WRITE", tc.nbytes, got, ref)
			}
			if n := c.m.NIC.Stack().Stats().OpsPosted - posted; n != uint64(tc.verbs) {
				t.Errorf("%d B: put posted %d verbs, want %d", tc.nbytes, n, tc.verbs)
			}
			for _, server := range []int{1, 2} {
				if v := replicaVer(t, cl, server, key); v != c.Issued(key) {
					t.Errorf("%d B: server %d at ver %d on return, want %d", tc.nbytes, server, v, c.Issued(key))
				}
			}
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if st := c.Stats; st.Retries != 0 || st.AckedPuts != 4 {
		t.Errorf("clean run: %+v", st)
	}
	mustZeroViolations(t, cl)
}

// A spilled Get is one posting stage too: the slot READ and the kernel's
// extent read leave together at the offset the ledger holds, so it costs
// an inline Get's round trip plus the kernel's PCIe read, with both
// verbs still there. A key the ledger holds no extent for is read with
// the slot READ alone.
func TestSpilledGetCostsOneRoundTrip(t *testing.T) {
	net, cl := newTestCluster(t, 1)
	c := cl.Client
	const inline, spilled = 1, 4 // both shard 1
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if runErr = c.Put(p, inline); runErr != nil {
			return
		}
		if runErr = c.PutLarge(p, spilled); runErr != nil {
			return
		}
		var took [2]sim.Duration
		for i, key := range []uint64{inline, spilled} {
			if _, _, runErr = c.Get(p, key); runErr != nil { // warm-up
				return
			}
			start, posted := p.Now(), c.m.NIC.Stack().Stats().OpsPosted
			slot, found, err := c.Get(p, key)
			if err != nil || !found {
				runErr = fmt.Errorf("key %d: found=%v: %w", key, found, err)
				return
			}
			took[i] = p.Now().Sub(start)
			if n := c.m.NIC.Stack().Stats().OpsPosted - posted; n != uint64(i+1) {
				t.Errorf("key %d: get posted %d verbs, want %d", key, n, i+1)
			}
			if want := c.expectedVal(key, 1); !bytes.Equal(slot.Val, want) {
				t.Errorf("key %d: served %d B, want %d", key, len(slot.Val), len(want))
			}
		}
		if limit := took[0] + took[0]/4; took[1] >= limit {
			t.Errorf("spilled get took %v, want < 1.25 x %v of an inline get", took[1], took[0])
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if st := c.Stats; st.SpilledReads != 2 || st.Retries != 0 {
		t.Errorf("want one pair per spilled get: %+v", st)
	}
	mustZeroViolations(t, cl)
}

// The ledger's offset is only a hint. Pointed at another live key's
// extent, a Get reads that extent beside the slot, finds the slot naming
// its own, and posts the pair again there: two pairs, the right value,
// no torn read.
func TestSpilledGetWrongHint(t *testing.T) {
	net, cl := newTestCluster(t, 1)
	c := cl.Client
	const key, other = 4, 7 // both shard 1
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		for _, k := range []uint64{key, other} {
			if runErr = c.PutLarge(p, k); runErr != nil {
				return
			}
		}
		own := c.ext[key].off
		c.ext[key].off = c.ext[other].off
		reads, posted := c.Stats.SpilledReads, c.m.NIC.Stack().Stats().OpsPosted
		slot, found, err := c.Get(p, key)
		c.ext[key].off = own
		if err != nil || !found {
			runErr = fmt.Errorf("found=%v: %w", found, err)
			return
		}
		if !bytes.Equal(slot.Val, LargeValueFor(key, 1)) {
			t.Errorf("served %d B, want LargeValueFor(%d,1)", len(slot.Val), key)
		}
		if n := c.Stats.SpilledReads - reads; n != 2 {
			t.Errorf("get posted %d pairs, want 2", n)
		}
		if n := c.m.NIC.Stack().Stats().OpsPosted - posted; n != 4 {
			t.Errorf("get posted %d verbs, want 4", n)
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := c.Stats
	if st.TornDetected+st.TornOverwrite+st.TornReused+st.TornStaleRep+st.TornCorrupt != 0 || st.Failovers != 0 {
		t.Errorf("a wrong hint is not a torn read: %+v", st)
	}
	mustZeroViolations(t, cl)
}

// With one replica marked down the other is written in a single attempt
// and the write is owed to the down one.
func TestOverlappedPutOneReplicaDown(t *testing.T) {
	net, cl := newTestCluster(t, 1)
	c := cl.Client
	const key = 4
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		c.MarkDown(1)
		posted := c.m.NIC.Stack().Stats().OpsPosted
		if runErr = c.Put(p, key); runErr != nil {
			return
		}
		if n := c.m.NIC.Stack().Stats().OpsPosted - posted; n != 1 {
			t.Errorf("put with one replica down posted %d verbs, want 1", n)
		}
		if c.Stats.Retries != 0 {
			t.Errorf("retries = %d, want 0", c.Stats.Retries)
		}
		if got, owed := c.deficits[1][key]; !owed || got != 1 || c.Deficits() != 1 {
			t.Errorf("deficit ledger = %v, want server 1 owed key %d ver 1", c.deficits, key)
		}
		if v := replicaVer(t, cl, 2, key); v != 1 {
			t.Errorf("backup at ver %d, want 1", v)
		}
		c.MarkUp(1)
		c.Repair(p)
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if c.Deficits() != 0 || c.Stats.Repairs != 1 {
		t.Errorf("after repair: %d owed, %d repairs", c.Deficits(), c.Stats.Repairs)
	}
	mustZeroViolations(t, cl)
}

// A replica crashes with both writes in flight: the Put still acks
// through the other, the crashed replica becomes a deficit, and the
// convergence pass brings it back.
func TestOverlappedPutReplicaCrashInFlight(t *testing.T) {
	net, cl := newTestCluster(t, 1)
	c := cl.Client
	const key = 4
	crashed := cl.Servers[1].M
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		// One way is ~2.4 µs on this bed: 1 µs in, both WRITEs are on
		// the wire and neither has landed.
		crashed.Eng.ScheduleAt(p.Now().Add(sim.Microsecond), crashed.NIC.Crash)
		if runErr = c.Put(p, key); runErr != nil {
			return
		}
		if c.Acked(key) != 1 || replicaVer(t, cl, 2, key) != 1 {
			t.Errorf("acked = %d, backup ver = %d, want 1/1", c.Acked(key), replicaVer(t, cl, 2, key))
		}
		if !c.Down(1) || c.deficits[1][key] != 1 {
			t.Errorf("crashed replica: down=%v deficits=%v", c.Down(1), c.deficits)
		}
		crashed.NIC.Restart()
		p.Sleep(100 * sim.Microsecond)
		c.RepairAll(p)
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if c.Deficits() != 0 || c.Stats.Repairs != 1 {
		t.Errorf("after RepairAll: %d owed, %d repairs", c.Deficits(), c.Stats.Repairs)
	}
	mustZeroViolations(t, cl)
}

// An ACK blackout on one replica makes its landed first attempt look
// failed while the other replica's completes. The retry probes, finds
// the version in place and suppresses itself: the slot is written once.
func TestOverlappedPutAmbiguousFirstAttempt(t *testing.T) {
	net, cl := newTestCluster(t, 1)
	c := cl.Client
	const key = 4
	srv := net.Machines[2] // server 1
	srv.Port.SetFaults(chaos.NewFaultSite(srv.Eng, "srv1-ack-blackout",
		chaos.LinkFaults{}, []chaos.Window{{At: sim.Time(100 * sim.Microsecond), Dur: 600 * sim.Microsecond}}, 0))
	var runErr error
	var posted uint64
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		// As in the failover battery: the write lands and its ack dies,
		// the probe runs after the blackout heals.
		p.Sleep(350 * sim.Microsecond)
		before := c.m.NIC.Stack().Stats().OpsPosted
		runErr = c.Put(p, key)
		posted = c.m.NIC.Stack().Stats().OpsPosted - before
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := c.Stats
	if st.DupSuppressed != 1 || st.Retries != 1 {
		t.Errorf("DupSuppressed = %d, Retries = %d, want 1/1", st.DupSuppressed, st.Retries)
	}
	// Two first-attempt WRITEs and the probe READ; a rewrite would be a
	// fourth verb.
	if posted != 3 {
		t.Errorf("put posted %d verbs, want 3", posted)
	}
	if c.Deficits() != 0 || replicaVer(t, cl, 1, key) != 1 || replicaVer(t, cl, 2, key) != 1 {
		t.Errorf("owed %d, replica vers %d/%d", c.Deficits(), replicaVer(t, cl, 1, key), replicaVer(t, cl, 2, key))
	}
	mustZeroViolations(t, cl)
}

// Two client processes put disjoint keys through two sessions at the
// same time, inline and spilled: every replica ends up with exactly its
// own key's bytes, so neither saw the other's staged images.
func TestOverlappedPutsKeepSessionsApart(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	bothOut := 0 // staged images fetched while both sessions were held
	c.m.NIC.SetDMAObserver(func(mr.Access, uint64, int) {
		if len(c.pool) == 0 {
			bothOut++
		}
	})
	errs := make([]error, 2)
	for cli := range errs {
		net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
			for round := 0; round < 4 && errs[cli] == nil; round++ {
				for key := uint64(1 + cli); key <= 32 && errs[cli] == nil; key += 2 {
					if (key/2+uint64(round))%2 == 0 {
						errs[cli] = c.Put(p, key)
					} else {
						errs[cli] = c.PutLarge(p, key)
					}
				}
			}
		})
	}
	net.Run()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if bothOut == 0 {
		t.Error("the two processes never held their sessions at the same time")
	}
	if c.Stats.AckedPuts != 128 || c.Deficits() != 0 {
		t.Errorf("acked %d of 128, %d owed", c.Stats.AckedPuts, c.Deficits())
	}
	mustZeroViolations(t, cl)
}

// newOwedCluster returns a two-session cluster whose server 1 is back up
// and owed version 1 of keys 1, 4, 7 and 10 (all shard 1), which a
// repair pass delivers in that order.
func newOwedCluster(t *testing.T) (*testrig.Net, *Cluster) {
	t.Helper()
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	var err error
	net.Machines[0].Eng.Go("setup", func(p *sim.Process) {
		c.MarkDown(1)
		for _, key := range []uint64{1, 4, 7, 10} {
			if err = c.Put(p, key); err != nil {
				return
			}
		}
		c.MarkUp(1)
	})
	net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return net, cl
}

// Repair snapshots the owed keys and parks on every write. A Put from
// another client process that settles a later key's debt meanwhile used
// to leave repair reading version 0 out of the ledger and writing it
// over the newer slot.
func TestRepairSkipsDebtSettledMeanwhile(t *testing.T) {
	net, cl := newOwedCluster(t)
	c := cl.Client
	var putErr error
	net.Machines[0].Eng.Go("kv-repair", func(p *sim.Process) { c.Repair(p) })
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) { putErr = c.Put(p, 10) })
	net.Run()
	if putErr != nil {
		t.Fatal(putErr)
	}
	if v := replicaVer(t, cl, 1, 10); v != 2 {
		t.Errorf("server 1 holds key 10 at ver %d, want 2", v)
	}
	if c.Stats.Repairs != 3 || c.Deficits() != 0 {
		t.Errorf("repairs = %d, owed = %d, want 3/0", c.Stats.Repairs, c.Deficits())
	}
	mustZeroViolations(t, cl)
}

// The superseded variant: the other process's Put is still in flight
// when repair reaches the key, so the debt is there but older than the
// issued version. Repair's first attempt writes without probing; on the
// same QP behind the newer write it would regress the slot.
func TestRepairSkipsDebtSupersededInFlight(t *testing.T) {
	net, cl := newOwedCluster(t)
	c := cl.Client
	var putErr error
	inFlight := false
	net.Machines[0].Eng.Go("kv-repair", func(p *sim.Process) { c.Repair(p) })
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		// Start once keys 1 and 4 are repaired and key 7's write is out:
		// this Put is then posted behind it and completes after it.
		for len(c.deficits[1]) > 2 {
			p.Sleep(100 * sim.Nanosecond)
		}
		inFlight = c.deficits[1][10] == 1
		putErr = c.Put(p, 10)
	})
	net.Run()
	if putErr != nil {
		t.Fatal(putErr)
	}
	if !inFlight {
		t.Fatal("repair reached key 10 before the racing Put started")
	}
	if v := replicaVer(t, cl, 1, 10); v != 2 {
		t.Errorf("server 1 holds key 10 at ver %d, want 2", v)
	}
	if c.Stats.Repairs != 3 || c.Deficits() != 0 {
		t.Errorf("repairs = %d, owed = %d, want 3/0", c.Stats.Repairs, c.Deficits())
	}
	mustZeroViolations(t, cl)
}

// opLoop runs op from one client process, once per step call, so a
// caller outside the simulation can meter single operations.
func opLoop(tb testing.TB, cl *Cluster, op func(p *sim.Process, i int) error) (step func()) {
	var tick sim.Signal
	stop := false
	cl.Net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		for i := 0; ; i++ {
			tick.Wait(p)
			if stop {
				return
			}
			if err := op(p, i); err != nil {
				tb.Error(err)
			}
		}
	})
	cl.Net.Run()
	step = func() {
		tick.Broadcast()
		cl.Net.Run()
	}
	tb.Cleanup(func() {
		stop = true
		step()
	})
	return step
}

// TestAllocsPutPath pins the objects one Put and one PutLarge allocate
// through the whole stack (client, NIC, transport, switch), so a change
// that would trip the benchmark's 2 % host_allocs_per_op gate on
// kv-inline or kv-large fails here first. The client's own share is
// zero: images are encoded in session scratch and the overlapped
// attempt's join is built once per session.
func TestAllocsPutPath(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	for _, tc := range []struct {
		name string
		put  func(*Client, *sim.Process, uint64) error
		max  float64
	}{
		{"Put", (*Client).Put, 31},
		{"PutLarge", (*Client).PutLarge, 61},
	} {
		_, cl := newTestCluster(t, 1)
		step := opLoop(t, cl, func(p *sim.Process, i int) error { return tc.put(cl.Client, p, uint64(i%64+1)) })
		for i := 0; i < 128; i++ { // every key written: maps and arenas at size
			step()
		}
		if n := testing.AllocsPerRun(200, step); n > tc.max {
			t.Errorf("%s allocates %.0f objects, want <= %.0f", tc.name, n, tc.max)
		}
	}
}

func benchOp(b *testing.B, prefill func(*Client, *sim.Process, uint64) error, op func(*Client, *sim.Process, uint64) error) {
	net, cl := newTestCluster(b, 1)
	c := cl.Client
	var runErr error
	var simTime sim.Duration
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		for key := uint64(1); key <= 64 && runErr == nil; key++ {
			runErr = prefill(c, p, key)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := p.Now()
		for i := 0; i < b.N && runErr == nil; i++ {
			runErr = op(c, p, uint64(i%64+1))
		}
		simTime = p.Now().Sub(start)
	})
	net.Run()
	if runErr != nil {
		b.Fatal(runErr)
	}
	b.ReportMetric(simTime.Microseconds()/float64(b.N), "sim-us/op")
}

func getOp(c *Client, p *sim.Process, key uint64) error {
	_, _, err := c.Get(p, key)
	return err
}

// BenchmarkPut is one inline Put on the clean 3-server bed: host ns/op
// and allocs/op next to the simulated latency.
func BenchmarkPut(b *testing.B) { benchOp(b, (*Client).Put, (*Client).Put) }

// BenchmarkPutLarge is one spilled Put: extent and slot to both replicas
// in one posting stage.
func BenchmarkPutLarge(b *testing.B) { benchOp(b, (*Client).PutLarge, (*Client).PutLarge) }

// BenchmarkGet is one inline Get served by the primary.
func BenchmarkGet(b *testing.B) { benchOp(b, (*Client).Put, getOp) }
