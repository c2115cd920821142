package kvserve

import (
	"errors"
	"fmt"
	"testing"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/sim"
)

// publishWitness checks publish-after-contents from the servers' side of
// the PCIe link, independently of the client that claims it: whenever a
// server NIC issues the DMA of a remote WRITE into one of its slot tables,
// the witness reads that slot out of host memory every 20 ns until the
// write has long been committed, and a FlagSpilled slot at version v must
// at each of those instants point at an extent image that already holds
// key's version >= v. Back-to-back extent and slot rely on the NIC
// committing one QP's WRITEs in the order they arrived; this is where
// that is proved rather than assumed.
type publishWitness struct {
	cl         *Cluster
	slotWrites int
	spilled    int // checks that found a spilled slot
	violations []string
}

func watchPublishOrder(cl *Cluster) *publishWitness {
	w := &publishWitness{cl: cl}
	table := hostmem.Addr(cl.Lay.ShardBytes())
	for _, srv := range cl.Servers {
		srv.M.NIC.SetDMAObserver(func(need mr.Access, va uint64, _ int) {
			var arena hostmem.Addr
			switch slot := hostmem.Addr(va); {
			case need != mr.AccessRemoteWrite:
				return
			case slot >= srv.PrimaryVA && slot < srv.PrimaryVA+table:
				arena = srv.PrimaryExtVA
			case slot >= srv.BackupVA && slot < srv.BackupVA+table:
				arena = srv.BackupExtVA
			default:
				return
			}
			w.slotWrites++
			for d := sim.Duration(0); d <= 3*sim.Microsecond; d += 20 * sim.Nanosecond {
				srv.M.Eng.Schedule(d, func() { w.check(srv, hostmem.Addr(va), arena) })
			}
		})
	}
	return w
}

func (w *publishWitness) check(srv *Server, slotVA, arena hostmem.Addr) {
	mem := srv.M.NIC.Memory()
	b, err := mem.ReadVirt(slotVA, SlotSize)
	if err != nil {
		w.violations = append(w.violations, err.Error())
		return
	}
	slot := DecodeSlot(b)
	if slot.Flags&FlagSpilled == 0 {
		return
	}
	w.spilled++
	off, _, ok := DecodeSpillRef(slot.Val)
	if !ok {
		w.violations = append(w.violations, fmt.Sprintf("server %d key %d ver %d: unparseable spill ref", srv.Shard, slot.Key, slot.Ver))
		return
	}
	if b, err = mem.ReadVirt(w.cl.Lay.ExtentAddr(arena, off), ExtentSize); err != nil {
		w.violations = append(w.violations, err.Error())
		return
	}
	if ext := DecodeExtent(b); ext.Torn || ext.Key != slot.Key || ext.Ver < slot.Ver {
		w.violations = append(w.violations, fmt.Sprintf("server %d at %v: slot names key %d ver %d, its extent holds key %d ver %d (torn=%v)",
			srv.Shard, srv.M.Eng.Now(), slot.Key, slot.Ver, ext.Key, ext.Ver, ext.Torn))
	}
}

// Two client processes overwrite the same three spilled keys, 240 times
// in all, while the client's uplink loses frames in bursts, duplicates
// and reorders them: overtaken frames, go-back-N replays and duplicate-
// region arrivals all reach the servers, and at no instant does a
// server's memory hold a slot ahead of its extent.
func TestPublishAfterContentsAtTheServer(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	w := watchPublishOrder(cl)
	up := chaos.NewFaultSite(net.Machines[0].Eng, "client-up", chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.05),
		DupProb:     0.02,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.02,
		ReorderMax:  5 * sim.Microsecond,
	}, nil, 0)
	net.Machines[0].Port.SetFaults(up)
	errs := make([]error, 2)
	for cli := range errs {
		net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
			for i := 0; i < 120 && errs[cli] == nil; i++ {
				if err := c.PutLarge(p, uint64(4+i%3)); !errors.Is(err, ErrUnavailable) {
					errs[cli] = err
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
	net.Machines[0].Eng.Go("kv-converge", func(p *sim.Process) { c.RepairAll(p) })
	net.Run()
	st, tx := up.Stats(), c.m.NIC.Stack().Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 || tx.Retransmissions == 0 {
		t.Errorf("the uplink was too kind: %+v, %d retransmissions", st, tx.Retransmissions)
	}
	if c.Stats.LargePuts != 240 || w.slotWrites < 2*240 || w.spilled == 0 {
		t.Errorf("%d large puts, %d slot-table writes witnessed, %d spilled slots checked", c.Stats.LargePuts, w.slotWrites, w.spilled)
	}
	for _, v := range w.violations {
		t.Error(v)
	}
	mustZeroViolations(t, cl)
}

// The fire drill: a client that posts the slot ahead of the extent on the
// same QP publishes a pointer to bytes that are not there yet, and the
// witness must see it.
func TestPublishWitnessFireDrill(t *testing.T) {
	net, cl := newLargeTestCluster(t, 1)
	c := cl.Client
	w := watchPublishOrder(cl)
	const key = 4
	var runErr error
	net.Machines[0].Eng.Go("kv-client", func(p *sim.Process) {
		if runErr = c.PutLarge(p, key); runErr != nil {
			return
		}
		// Version 2, by hand, to the primary: slot first.
		sess, _ := c.acquire()
		defer c.release(sess)
		c.issued[key], c.larges[key][2] = 2, true
		sw, err := c.stageVersion(sess, key, 2)
		if err != nil {
			runErr = err
			return
		}
		srv, cn, sh := c.servers[1], &c.conns[1], c.lay.ShardOf(key)
		w := core.Verb{Op: core.OpWrite, RKey: cn.rkey, Deadline: p.Now().Add(c.deadline)}
		var slotDone, extDone sim.Completion[error]
		w.LocalVA, w.RemoteVA, w.Len = uint64(sess.slot), uint64(c.lay.SlotAddr(srv.TableFor(c.lay, sh), key)), SlotSize
		c.m.NIC.Post(cn.qpc, w, slotDone.Complete)
		w.LocalVA, w.RemoteVA, w.Len = uint64(sess.ext), uint64(c.lay.ExtentAddr(srv.ArenaFor(c.lay, sh), sw.off)), ExtentSize
		c.m.NIC.Post(cn.qpc, w, extDone.Complete)
		if runErr, _ = slotDone.Wait(p); runErr == nil {
			runErr, _ = extDone.Wait(p)
		}
	})
	net.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(w.violations) == 0 {
		t.Fatal("slot posted ahead of its extent and the witness saw nothing")
	}
	t.Logf("witness: %s (and %d more)", w.violations[0], len(w.violations)-1)
}
