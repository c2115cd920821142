package main

import (
	"fmt"
	"math/rand"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/crc"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/testrig"
)

// verbsShape fixes one of the two plain-verbs workloads.
type verbsShape struct {
	profile  func() core.Config
	cable    func() fabric.LinkConfig
	window   int  // ops in flight
	size     int  // bytes per op
	srcBytes int  // source region per machine, filled from the seed
	mixed    bool // true: WRITE and READ in seeded random order; false: strictly alternating
}

// ringSlots is how many destination slots a verbs testbed keeps per
// window entry. Op i lands in slot i mod (ringSlots*window); the data
// check of op i runs when op i+2*window completes, so the remote DMA
// write behind an acknowledged WRITE has landed and nothing has reused
// the slot yet.
const ringSlots = 4

func verbsWorkload(name, why string, ops int, shape verbsShape) *workload {
	return &workload{
		name: name, why: why, ops: ops, clients: 1,
		generate: func(rng *rand.Rand, n int) ([]op, any) {
			fill := make([]byte, shape.srcBytes)
			rng.Read(fill)
			out := make([]op, n)
			span := (shape.srcBytes - shape.size) / 64
			kinds := mixKinds(rng, n, 1, []opKind{opWrite, opRead}, []int{50, 50})
			for i := range out {
				if !shape.mixed {
					kinds[i] = opKind(i % 2) // opWrite, opRead, opWrite, ...
				}
				out[i] = op{kind: kinds[i], arg: uint64(rng.Intn(span+1)) * 64, size: shape.size}
			}
			return out, fill
		},
		setup: func(images any, seed int64, o roundOpts) (testbed, error) {
			return newVerbsBed(shape, images.([]byte), seed, o)
		},
	}
}

// verbsBed is the two-machine direct-cable testbed driven by completion
// callbacks. Each machine's buffer is [source region | destination ring].
type verbsBed struct {
	pair   *testrig.Pair
	shape  verbsShape
	o      roundOpts
	ring   int
	ckA    *chaos.Checker
	ckB    *chaos.Checker
	tel    *testrig.Telemetry
	failed []string // data-check failures of a checked round
}

// newVerbsBed builds the pair and fills both machines' source regions
// with the generated image.
func newVerbsBed(s verbsShape, fill []byte, seed int64, o roundOpts) (*verbsBed, error) {
	ring := ringSlots * s.window
	bufBytes := s.srcBytes + ring*s.size
	var pair *testrig.Pair
	var err error
	if o.sharded {
		pair, err = testrig.NewSharded(seed, s.profile(), s.cable(), bufBytes, 1)
	} else {
		pair, err = testrig.New(seed, s.profile(), s.cable(), bufBytes)
	}
	if err != nil {
		return nil, err
	}
	if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
		return nil, err
	}
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), fill); err != nil {
		return nil, err
	}
	if err := pair.B.Memory().WriteVirt(pair.BufB.Base(), fill); err != nil {
		return nil, err
	}
	b := &verbsBed{pair: pair, shape: s, o: o, ring: ring}
	b.ckA, b.ckB, b.tel = attachToPair(pair, o)
	return b, nil
}

// attachToPair attaches what a round asks for beside the workload: the
// protocol invariant checkers (with the DMA guard of invariant 9) in a
// checked round, the telemetry registry and trace buffer in a traced one.
func attachToPair(pair *testrig.Pair, o roundOpts) (ckA, ckB *chaos.Checker, tel *testrig.Telemetry) {
	if o.check {
		ckA = chaos.AttachChecker(pair.A.Stack(), "A", pair.Eng)
		ckB = chaos.AttachChecker(pair.B.Stack(), "B", pair.EngB)
		pair.A.SetDMAObserver(ckA.DMAGuard(pair.A.MRTable()))
		pair.B.SetDMAObserver(ckB.DMAGuard(pair.B.MRTable()))
	}
	if o.tel {
		tel = pair.Instrument()
	}
	return ckA, ckB, tel
}

// addrs returns op i's source and destination: a WRITE goes from A's
// source region to B's ring, a READ from B's source region to A's ring.
func (b *verbsBed) addrs(i int, o op) (src, dst hostmem.Addr, srcMem, dstMem *hostmem.Memory) {
	slot := hostmem.Addr(b.shape.srcBytes + (i%b.ring)*b.shape.size)
	if o.kind == opWrite {
		return b.pair.BufA.Base() + hostmem.Addr(o.arg), b.pair.BufB.Base() + slot, b.pair.A.Memory(), b.pair.B.Memory()
	}
	return b.pair.BufB.Base() + hostmem.Addr(o.arg), b.pair.BufA.Base() + slot, b.pair.B.Memory(), b.pair.A.Memory()
}

// verbsSlot is one window entry: it carries the op in flight and a
// completion callback made once, so posting allocates nothing here.
type verbsSlot struct {
	i     int
	start sim.Time
	span  int32
	done  func(error)
}

func (b *verbsBed) drive(ops []op, rec *recording) {
	eng := b.pair.Eng
	next := 0
	var post func(s *verbsSlot)
	post = func(s *verbsSlot) {
		s.i = next
		next++
		o := ops[s.i]
		s.start = eng.Now()
		s.span = rec.spans.begin(opKindNames[o.kind], s.i, s.start)
		src, dst, _, _ := b.addrs(s.i, o)
		if o.kind == opWrite {
			b.pair.A.PostWrite(testrig.QPA, uint64(src), uint64(dst), o.size, s.done)
		} else {
			b.pair.A.PostRead(testrig.QPA, uint64(src), uint64(dst), o.size, s.done)
		}
	}
	slots := make([]*verbsSlot, b.shape.window)
	for k := range slots {
		s := &verbsSlot{}
		s.done = func(err error) {
			now := eng.Now()
			rec.spans.end(s.span, now)
			rec.completed(s.i, now.Sub(s.start), err)
			if b.o.check {
				rec.bytes += uint64(ops[s.i].size)
				if j := s.i - 2*b.shape.window; j >= 0 {
					b.checkOp(j, ops[j])
				}
			}
			if next < len(ops) {
				post(s)
			}
		}
		slots[k] = s
	}
	eng.Schedule(0, func() {
		for _, s := range slots {
			if next < len(ops) {
				post(s)
			}
		}
	})
	b.pair.Run()
	if b.o.check {
		for j := len(ops) - 2*b.shape.window; j < len(ops); j++ {
			if j >= 0 {
				b.checkOp(j, ops[j])
			}
		}
	}
}

// checkOp compares op j's destination with its source: byte-equal for
// small ops, by CRC64 over the touched ranges for bulk ones.
func (b *verbsBed) checkOp(j int, o op) {
	src, dst, srcMem, dstMem := b.addrs(j, o)
	if b.o.corrupt == j && j > 0 {
		if cur, err := dstMem.ReadVirt(dst, 1); err == nil {
			_ = dstMem.WriteVirt(dst, []byte{cur[0] ^ 0xff})
		}
	}
	want, err1 := srcMem.ReadVirt(src, o.size)
	got, err2 := dstMem.ReadVirt(dst, o.size)
	switch {
	case err1 != nil || err2 != nil:
		b.failed = append(b.failed, fmt.Sprintf("op %d: unreadable range: %v %v", j, err1, err2))
	case o.size > 4096:
		if crc.Checksum64(want) != crc.Checksum64(got) {
			b.failed = append(b.failed, fmt.Sprintf("op %d (%s %d B): destination CRC64 differs from source", j, opKindNames[o.kind], o.size))
		}
	case string(want) != string(got):
		b.failed = append(b.failed, fmt.Sprintf("op %d (%s %d B): destination bytes differ from source", j, opKindNames[o.kind], o.size))
	}
}

func (b *verbsBed) verify(ops []op, rec *recording) []string {
	bad := b.failed
	bad = append(bad, b.ckA.Finish()...)
	bad = append(bad, b.ckB.Finish()...)
	if done := b.pair.A.Stack().Stats().OpsCompleted; done != uint64(len(ops)) {
		bad = append(bad, fmt.Sprintf("completed ops %d != attempted %d", done, len(ops)))
	}
	if rec.failed != 0 {
		bad = append(bad, fmt.Sprintf("%d ops returned an error", rec.failed))
	}
	return bad
}

func (b *verbsBed) now() sim.Time {
	if b.pair.Group != nil {
		return b.pair.Group.Now()
	}
	return b.pair.Eng.Now()
}

func (b *verbsBed) exports() (*telemetry.Registry, *telemetry.TraceBuffer) {
	return b.tel.Registry, b.tel.Trace
}

func (b *verbsBed) counts() counts { return pairCounts(b.pair, b.tel) }

// pairCounts reads the counters of a two-machine testbed.
func pairCounts(pair *testrig.Pair, tel *testrig.Telemetry) counts {
	var c counts
	if pair.Group != nil {
		c.n[cFired] = pair.Group.Fired()
	} else {
		c.n[cFired] = pair.Eng.Fired()
	}
	addNIC(&c, pair.A, true)
	addNIC(&c, pair.B, false)
	ab, ba := pair.Link.StatsAtoB(), pair.Link.StatsBtoA()
	c.n[cLinkFrames] = ab.Frames + ba.Frames
	c.n[cDiscards] = ab.Dropped + ba.Dropped
	u1, u2 := pair.Link.Utilisations()
	c.linkUtil = max(u1, u2)
	if tel != nil {
		addTLB(&c, tel.Registry)
	}
	return c
}

// addNIC folds one machine's stack, NIC and DMA counters into c.
// PCIe utilisation is taken on the requester, the machine ops are posted
// on.
func addNIC(c *counts, n *core.NIC, requester bool) {
	st := n.Stack().Stats()
	c.n[cTxPackets] += st.TxPackets
	c.n[cAcks] += st.AcksSent
	c.n[cRetrans] += st.Retransmissions
	c.n[cTimeouts] += st.Timeouts
	ns := n.Stats()
	c.n[cDoorbells] += ns.Doorbells
	c.n[cRPCs] += ns.RPCsDispatched
	c.n[cKernelDMAReads] += ns.KernelDMAReads
	c.n[cStreamSegs] += ns.StreamSegments
	ds := n.DMA().Stats()
	c.n[cDMACmds] += ds.ReadCommands + ds.WriteCommands
	c.n[cDMABytes] += ds.ReadBytes + ds.WriteBytes
	c.n[cSplitSegs] += ds.SplitSegments
	if requester {
		c.utilH2C, c.utilC2H = n.DMA().Utilisation()
	}
}

// addTLB reads the TLB counters, which the NIC exports only through an
// attached registry.
func addTLB(c *counts, reg *telemetry.Registry) {
	reg.Collect()
	reg.EachCounter(func(key string, v uint64) {
		switch metricName(key) {
		case "nic_tlb_lookups":
			c.n[cTLBLookups] += v
		case "nic_tlb_misses":
			c.n[cTLBMisses] += v
		}
	})
}

// metricName strips the label block from a registry key.
func metricName(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i]
		}
	}
	return key
}
