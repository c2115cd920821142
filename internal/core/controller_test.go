package core

import (
	"fmt"
	"strings"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/sim"
)

func TestControllerCountsActivity(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	r.eng.Schedule(0, func() {
		r.a.PostWrite(1, uint64(r.bufA.Base()), uint64(r.bufB.Base()), 4096, nil)
	})
	r.eng.Run()
	snapA := r.a.Controller().Snapshot()
	snapB := r.b.Controller().Snapshot()
	if snapA[RegTxPackets] == 0 {
		t.Error("A sent nothing")
	}
	if snapB[RegRxPackets] != snapA[RegTxPackets] {
		t.Errorf("B received %d of %d", snapB[RegRxPackets], snapA[RegTxPackets])
	}
	if snapA[RegDoorbells] != 1 {
		t.Errorf("doorbells = %d", snapA[RegDoorbells])
	}
	if snapB[RegDMAWriteBytes] != 4096 {
		t.Errorf("B DMA write bytes = %d", snapB[RegDMAWriteBytes])
	}
	if snapA[RegAcksReceived] == 0 {
		t.Error("A received no ACKs")
	}
}

func TestControllerTimedRead(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	var v uint64
	var took sim.Duration
	r.eng.Go("host", func(p *sim.Process) {
		start := p.Now()
		var err error
		v, err = r.a.Controller().Read(p, RegTLBLookups)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		took = p.Now().Sub(start)
	})
	r.eng.Run()
	_ = v
	// An MMIO read costs a PCIe round trip (~1 us), never zero.
	if took < 500*sim.Nanosecond {
		t.Errorf("register read took %v, too fast for MMIO", took)
	}
}

func TestControllerUnknownRegister(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	var err error
	r.eng.Go("host", func(p *sim.Process) {
		_, err = r.a.Controller().Read(p, Register(9999))
	})
	r.eng.Run()
	if err == nil {
		t.Error("unknown register accepted")
	}
}

func TestControllerDump(t *testing.T) {
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	out := fmt.Sprint(r.a.Controller().Snapshot())
	for _, want := range []string{"TX_PACKETS", "TLB_LOOKUPS", "RPCS_DISPATCHED"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %s", want)
		}
	}
	if Register(9999).String() != "REG(9999)" {
		t.Error("unknown register name")
	}
}

func TestARPOverNIC(t *testing.T) {
	// Frame demux: ARP resolution works across the same link the RoCE
	// traffic uses, and RoCE still flows afterwards.
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	var mac packet.MAC
	var err error
	r.eng.Go("host", func(p *sim.Process) {
		mac, err = r.a.ResolveMAC(p, r.b.Identity().IP)
		if err != nil {
			return
		}
		err = r.a.WriteSync(p, 1, uint64(r.bufA.Base()), uint64(r.bufB.Base()), 64)
	})
	r.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mac != r.b.Identity().MAC {
		t.Errorf("resolved %v", mac)
	}
	if r.a.ARP().Requests != 1 {
		t.Errorf("requests = %d", r.a.ARP().Requests)
	}
	if r.b.Stack().Stats().RxDiscarded != 0 {
		t.Error("ARP frames leaked into the RoCE stack")
	}
}
