package core

import (
	"fmt"
	"strings"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/raceflag"
	"strom/internal/sim"
)

// TestNICCounterTable guards the counter table every view reads: each
// register is served by exactly one row and carries a mnemonic, no
// health key, metric name or mnemonic appears twice (nor collides with
// the names the views add as families), and every row is read by some
// view.
func TestNICCounterTable(t *testing.T) {
	served := make(map[Register]int)
	names := map[string]map[string]bool{
		"mnemonic": {},
		"health":   {"mr_violations": true, "outstanding_ops": true},
		"metric":   {"mr_validation_fail": true, "roce_qp_state": true, "pcie_h2c_utilisation": true, "pcie_c2h_utilisation": true},
	}
	for _, k := range mrViolationKeys {
		names["health"][k] = true
	}
	for i, c := range nicCounters {
		if (c.reg == noRegister) != (c.mnemonic == "") {
			t.Errorf("row %d: register %d with mnemonic %q", i, c.reg, c.mnemonic)
		}
		if c.reg != noRegister {
			served[c.reg]++
		}
		if c.mnemonic == "" && c.health == "" && c.metric == "" {
			t.Errorf("row %d is read by no view", i)
		}
		for view, name := range map[string]string{"mnemonic": c.mnemonic, "health": c.health, "metric": c.metric} {
			if name == "" {
				continue
			}
			if names[view][name] {
				t.Errorf("row %d: %s %q appears twice", i, view, name)
			}
			names[view][name] = true
		}
	}
	for r := Register(0); r < registerCount; r++ {
		if served[r] != 1 {
			t.Errorf("register %d is served by %d rows, want 1", r, served[r])
		}
	}
}

// TestAllocsNICHealth guards that a warmed NIC's health scrape allocates
// nothing: the report maps and per-QP keys are made once and reused, and
// the counter table reads one reused snapshot.
func TestAllocsNICHealth(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; allocation counts are only meaningful without -race")
	}
	r := newRig(t, 1, Profile10G(), fabric.DirectCable10G())
	r.eng.Schedule(0, func() {
		r.a.PostWrite(1, uint64(r.bufA.Base()), uint64(r.bufB.Base()), 4096, nil)
	})
	r.eng.Run()
	counters, gauges := r.a.Health()
	if _, ok := gauges["qp1_state"]; counters["out_frames"] == 0 || !ok {
		t.Fatalf("warm-up report %v %v", counters, gauges)
	}
	if n := testing.AllocsPerRun(100, func() { r.a.Health() }); n != 0 {
		t.Errorf("Health allocates %.1f objects per call, want 0", n)
	}
}

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
