package core

import (
	"bytes"
	"math/rand"
	"testing"

	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/sim"
)

// churnPool takes the frame buffers most recently returned to the pool,
// overwrites every byte of them and puts them back: a received frame
// released while a DMA command still writes out of it ends up scribbled.
func churnPool() {
	bufs := make([][]byte, 8)
	for i := range bufs {
		b := packet.GetBuf()
		b = b[:cap(b)]
		for j := range b {
			b[j] = 0xEE
		}
		bufs[i] = b
	}
	for _, b := range bufs {
		packet.PutBuf(b)
	}
}

// TestRxFrameHeldUntilCommitKeepsItsBytes is the fire drill for received
// frames carried to their DMA commit (DESIGN.md §2.2). B's responder
// WRITE DMA and A's READ sink take each frame from the stack and the
// command writes the payload out of it when it commits; a 3 µs stall on
// both DMA engines holds every frame in its command for that long, while
// the frame pool is churned every 100 ns. A frame released at the end of
// the stack's processing instead would be scribbled before its commit,
// and host memory would not hold the bytes that were sent.
func TestRxFrameHeldUntilCommitKeepsItsBytes(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	const n = 16 << 10
	rng := rand.New(rand.NewSource(7))
	toB, fromB := make([]byte, n), make([]byte, n)
	rng.Read(toB)
	rng.Read(fromB)
	if err := r.a.Memory().WriteVirt(r.bufA.Base(), toB); err != nil {
		t.Fatal(err)
	}
	if err := r.b.Memory().WriteVirt(r.bufB.Base()+1<<20, fromB); err != nil {
		t.Fatal(err)
	}
	stall := func(sim.Time) sim.Duration { return 3 * sim.Microsecond }
	r.a.DMA().SetStall(stall)
	r.b.DMA().SetStall(stall)
	done := 0
	r.eng.Schedule(0, func() {
		check := func(err error) {
			if err != nil {
				t.Errorf("verb: %v", err)
			}
			done++
		}
		r.a.PostWrite(1, uint64(r.bufA.Base()), uint64(r.bufB.Base()), n, check)
		r.a.PostRead(1, uint64(r.bufB.Base())+1<<20, uint64(r.bufA.Base())+1<<20, n, check)
	})
	for i := 1; i <= 1000; i++ {
		r.eng.ScheduleAt(sim.Time(i*100)*sim.Time(sim.Nanosecond), churnPool)
	}
	r.eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 verbs completed", done)
	}
	if got, _ := r.b.Memory().ReadVirt(r.bufB.Base(), n); !bytes.Equal(got, toB) {
		t.Error("B's memory does not hold the WRITE's bytes: a received frame was released before its DMA commit")
	}
	if got, _ := r.a.Memory().ReadVirt(r.bufA.Base()+1<<20, n); !bytes.Equal(got, fromB) {
		t.Error("A's memory does not hold the READ's bytes: a response frame was released before its DMA commit")
	}
}

// TestCrashReleasesRxFramesOnce is the crash drill for received frames a
// consumer has taken. B crashes while taken frames sit in DMA commands —
// READ response chunks bound for B's memory and a WRITE's payload, held by
// a 5 µs stall — and while an RPC WRITE segment and an RPC's parameters
// wait in the kernel pipeline, where the crash aborts them (epoch).
// After a restart a WRITE reaches B's DMA engine while it is offline,
// and another one to an address the TLB cannot split (with MR validation
// switched off so that it gets that far). Every frame the fabric
// delivered to B must then lie in the frame free list exactly once: a
// frame released twice would sit there twice, and one never released
// would be missing. The list is a LIFO that neither the collector nor the
// race runtime empties, so every buffer returned during the test lies
// above those it held before, and the first draws find them all.
func TestCrashReleasesRxFramesOnce(t *testing.T) {
	cfg := Profile100G() // 2-word frames: three fit in the kernel pipeline's 6 cycles
	r := newRig(t, 1, cfg, fabric.DirectCable100G())
	delivered := make(map[*byte]bool)
	deliverB := func(f []byte) {
		delivered[&f[:1][0]] = true
		r.b.DeliverFrame(f)
	}
	link := fabric.NewLink(r.eng, fabric.DirectCable100G(), r.a, fabric.EndpointFunc(deliverB))
	r.a.SetTransmit(link.SendFromA)
	r.b.SetTransmit(link.SendFromB)
	k := &logKernel{}
	if err := r.b.DeployKernel(0x20, k); err != nil {
		t.Fatal(err)
	}
	// QP 3 on B takes hand-made frames; its peer on A does not exist,
	// so A drops B's acknowledgements.
	idA := r.a.Identity()
	if err := r.b.CreateQP(3, idA, 3); err != nil {
		t.Fatal(err)
	}
	var scratch packet.Packet
	frame := func(p *packet.Packet) []byte {
		p.SrcMAC, p.DstMAC = idA.MAC, r.b.Identity().MAC
		p.SrcIP, p.DstIP = idA.IP, r.b.Identity().IP
		return p.EncodeTo(packet.GetBuf())
	}
	write := func(psn uint32, va uint64) []byte {
		return frame(packet.FillSegmentAt(&scratch, packet.KindWrite, 3, psn, packet.RETH{VirtualAddress: va, DMALength: 8}, []byte("payload!"), 0, 1))
	}

	r.b.DMA().SetStall(func(sim.Time) sim.Duration { return 5 * sim.Microsecond })
	const readLen = 8 << 10
	want := make([]byte, readLen)
	rand.New(rand.NewSource(3)).Read(want)
	if err := r.a.Memory().WriteVirt(r.bufA.Base(), want); err != nil {
		t.Fatal(err)
	}
	crashVA := uint64(r.bufB.Base()) + 3<<20
	r.b.SetDMAObserver(func(_ mr.Access, va uint64, _ int) {
		if va == crashVA {
			r.eng.Schedule(0, r.b.Crash) // after this frame, inside the kernel pipeline's 6 cycles
		}
	})
	readDone := false
	r.eng.Schedule(0, func() {
		r.b.PostRead(2, uint64(r.bufA.Base()), uint64(r.bufB.Base())+2<<20, readLen, func(error) { readDone = true })
	})
	// B's READ responses are all in by 3 µs and commit at 5.5 µs or later.
	r.eng.ScheduleAt(sim.Time(4*sim.Microsecond), func() {
		deliverB(frame(packet.FillSegmentAt(&scratch, packet.KindRPCWrite, 3, 0, packet.RETH{VirtualAddress: 0x20, DMALength: 2}, []byte("s0"), 0, 1)))
		p, err := packet.FillRPCParams(&scratch, 3, 1, 0x20, []byte("p0"), cfg.Roce.MTUPayload)
		if err != nil {
			t.Fatal(err)
		}
		deliverB(frame(p))
		deliverB(write(2, crashVA))
	})
	var landed []byte
	r.eng.ScheduleAt(sim.Time(5*sim.Microsecond), func() {
		landed, _ = r.b.Memory().ReadVirt(r.bufB.Base()+2<<20, readLen)
	})
	r.eng.Run()
	if !r.b.Crashed() || !readDone {
		t.Fatalf("crashed %v, READ completed %v: the crash did not land", r.b.Crashed(), readDone)
	}
	if got := r.b.Stats().KernelAborts; got != 2 {
		t.Errorf("KernelAborts = %d, want the RPC WRITE segment and the RPC aborted in the pipeline", got)
	}
	if got, _ := r.b.Memory().ReadVirt(r.bufB.Base()+2<<20, readLen); bytes.Equal(landed, want) || !bytes.Equal(got, want) {
		t.Error("the READ's chunks were not in B's DMA commands at the crash, or did not commit after it")
	}
	if got, _ := r.b.Memory().ReadVirt(hostmem.Addr(crashVA), 8); string(got) != "payload!" {
		t.Errorf("the WRITE held in a DMA command at the crash landed %q", got)
	}

	r.b.Restart()
	if err := r.b.Stack().ReconnectQP(3); err != nil {
		t.Fatal(err)
	}
	r.b.SetDebugFaults(DebugFaults{SkipMRValidation: true})
	rx, cmds := r.b.Stack().Stats().RxPackets, r.b.DMA().Stats().WriteCommands
	offlineVA := r.bufB.Base() + 4<<20
	r.eng.Schedule(0, func() {
		r.b.DMA().SetOffline(true)
		deliverB(write(0, uint64(offlineVA)))
	})
	r.eng.ScheduleAt(r.eng.Now().Add(2*sim.Microsecond), func() {
		r.b.DMA().SetOffline(false)
		deliverB(write(1, 1<<40)) // no TLB entry
	})
	r.eng.Run()
	if got := r.b.Stack().Stats().RxPackets - rx; got != 2 {
		t.Errorf("B's stack took %d of the 2 WRITEs after the restart", got)
	}
	if got := r.b.DMA().Stats().WriteCommands - cmds; got != 0 {
		t.Errorf("%d of the WRITEs to an offline engine and an unmapped address became DMA commands", got)
	}
	if got, _ := r.b.Memory().ReadVirt(offlineVA, 8); string(got) == "payload!" {
		t.Error("the WRITE to an offline DMA engine landed")
	}

	listed := make(map[*byte]int)
	for range 4*len(delivered) + 64 {
		listed[&packet.GetBuf()[:1][0]]++
	}
	for array, n := range listed {
		if n > 1 {
			t.Fatalf("a frame buffer lies in the free list %d times: it was released more than once", n)
		}
		delete(delivered, array)
	}
	if len(delivered) > 0 {
		t.Errorf("%d frames delivered to B never went back to the free list", len(delivered))
	}
}
