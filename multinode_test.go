package strom_test

// Multi-node scenarios: the send-side shuffle of the paper's footnote 9
// (partitioning among queue pairs and hence different remote machines)
// over a switch topology.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"strom"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/sim"
	"strom/internal/testrig"
)

func TestSendSideShuffleAcrossSwitch(t *testing.T) {
	const (
		sendOp = 0x06
		nParts = 8
		tuples = 8192
	)
	cl := strom.NewCluster(9)
	sender, _ := cl.AddMachine("sender", strom.Profile10G())
	recv1, _ := cl.AddMachine("recv1", strom.Profile10G())
	recv2, _ := cl.AddMachine("recv2", strom.Profile10G())
	sw := cl.AddSwitch(strom.Cable10G(), 500*strom.Nanosecond)
	sw.Attach(sender)
	sw.Attach(recv1)
	sw.Attach(recv2)
	qp1, err := cl.CreateQueuePair(sender, recv1)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := cl.CreateQueuePair(sender, recv2)
	if err != nil {
		t.Fatal(err)
	}
	kern := strom.NewShuffleSendKernel()
	if err := sender.DeployKernel(sendOp, kern); err != nil {
		t.Fatal(err)
	}

	bufS, _ := sender.AllocBuffer(4 << 20)
	buf1, _ := recv1.AllocBuffer(4 << 20)
	buf2, _ := recv2.AllocBuffer(4 << 20)

	// Tuples; even partitions go to recv1, odd to recv2.
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, tuples*8)
	perPart := make([][]uint64, nParts)
	for i := 0; i < tuples; i++ {
		v := rng.Uint64()
		binary.LittleEndian.PutUint64(data[i*8:], v)
		pid := strom.ShufflePartition(v, nParts)
		perPart[pid] = append(perPart[pid], v)
	}
	if err := sender.Memory().WriteVirt(bufS.Base()+65536, data); err != nil {
		t.Fatal(err)
	}

	// The partition table in the SENDER's memory: (QPN, remote VA).
	const partRegion = 1 << 19
	table := make([]byte, nParts*16)
	for pid := 0; pid < nParts; pid++ {
		var qpn uint32
		var base uint64
		if pid%2 == 0 {
			qpn = qp1.QPNA
			base = uint64(buf1.Base()) + uint64(pid/2*partRegion)
		} else {
			qpn = qp2.QPNA
			base = uint64(buf2.Base()) + uint64(pid/2*partRegion)
		}
		binary.LittleEndian.PutUint32(table[pid*16:], qpn)
		binary.LittleEndian.PutUint64(table[pid*16+8:], base)
	}
	if err := sender.Memory().WriteVirt(bufS.Base(), table); err != nil {
		t.Fatal(err)
	}
	completion := bufS.Base() + 32768

	cl.Go("sender", func(p *strom.Process) {
		params := strom.ShuffleSendParams{
			TableAddress:      uint64(bufS.Base()),
			NumPartitions:     nParts,
			CompletionAddress: uint64(completion),
		}
		if err := sender.InvokeLocalSync(p, sendOp, qp1.QPNA, params.Encode()); err != nil {
			t.Errorf("invoke: %v", err)
			return
		}
		if err := sender.StreamLocalSync(p, sendOp, qp1.QPNA, uint64(bufS.Base())+65536, len(data)); err != nil {
			t.Errorf("stream: %v", err)
			return
		}
		count, err := sender.Memory().PollNonZeroWord(p, completion)
		if err != nil {
			t.Errorf("completion: %v", err)
			return
		}
		if count != tuples {
			t.Errorf("completion count = %d", count)
		}
	})
	cl.Run()

	// Verify tuple placement on both receivers.
	for pid := 0; pid < nParts; pid++ {
		m := recv1
		base := strom.Addr(uint64(buf1.Base()) + uint64(pid/2*partRegion))
		if pid%2 == 1 {
			m = recv2
			base = strom.Addr(uint64(buf2.Base()) + uint64(pid/2*partRegion))
		}
		want := perPart[pid]
		got, err := m.Memory().ReadVirt(base, len(want)*8)
		if err != nil {
			t.Fatalf("partition %d: %v", pid, err)
		}
		for i, w := range want {
			if v := binary.LittleEndian.Uint64(got[i*8:]); v != w {
				t.Fatalf("partition %d tuple %d: %#x != %#x", pid, i, v, w)
			}
		}
	}
	if kern.Stats().Tuples != tuples {
		t.Errorf("kernel tuples = %d", kern.Stats().Tuples)
	}
}

func TestIncastThroughBoundedSwitch(t *testing.T) {
	// Two senders blast one receiver through a switch with a 32-frame
	// buffer: frames tail-drop, RoCE go-back-N recovers, and every byte
	// still lands correctly — at the cost of retransmissions.
	cl := strom.NewCluster(17)
	s1, _ := cl.AddMachine("s1", strom.Profile10G())
	s2, _ := cl.AddMachine("s2", strom.Profile10G())
	recv, _ := cl.AddMachine("recv", strom.Profile10G())
	sw := cl.AddSwitchCfg(strom.SwitchConfig{Link: strom.Cable10G(), Forwarding: 500 * strom.Nanosecond, BufferBytes: 32 * 1500})
	sw.Attach(s1)
	sw.Attach(s2)
	sw.Attach(recv)
	qp1, err := cl.CreateQueuePair(s1, recv)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := cl.CreateQueuePair(s2, recv)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := s1.AllocBuffer(4 << 20)
	b2, _ := s2.AllocBuffer(4 << 20)
	br, _ := recv.AllocBuffer(8 << 20)
	const n = 1 << 20
	d1 := make([]byte, n)
	d2 := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(d1)
	rand.New(rand.NewSource(2)).Read(d2)
	if err := s1.Memory().WriteVirt(b1.Base(), d1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Memory().WriteVirt(b2.Base(), d2); err != nil {
		t.Fatal(err)
	}
	done := 0
	cl.Go("s1", func(p *strom.Process) {
		if err := qp1.WriteSync(p, uint64(b1.Base()), uint64(br.Base()), n); err != nil {
			t.Errorf("s1: %v", err)
			return
		}
		done++
	})
	cl.Go("s2", func(p *strom.Process) {
		if err := qp2.WriteSync(p, uint64(b2.Base()), uint64(br.Base())+n, n); err != nil {
			t.Errorf("s2: %v", err)
			return
		}
		done++
	})
	cl.Run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if sw.Dropped(s1)+sw.Dropped(s2) == 0 { // a discard is counted where the frame came in
		t.Error("no incast drops despite the bounded buffer")
	}
	g1, _ := recv.Memory().ReadVirt(br.Base(), n)
	g2, _ := recv.Memory().ReadVirt(br.Base()+n, n)
	if !bytes.Equal(g1, d1) || !bytes.Equal(g2, d2) {
		t.Error("incast corrupted data")
	}
	retr := s1.NIC().Stack().Stats().Retransmissions + s2.NIC().Stack().Stats().Retransmissions
	if retr == 0 {
		t.Error("no retransmissions despite drops")
	}
}

func TestSwitchThreeWayTraffic(t *testing.T) {
	// Plain writes between three machines through the switch.
	cl := strom.NewCluster(10)
	ms := make([]*strom.Machine, 3)
	for i := range ms {
		m, err := cl.AddMachine(string(rune('a'+i)), strom.Profile10G())
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	sw := cl.AddSwitch(strom.Cable10G(), 500*strom.Nanosecond)
	bufs := make([]*strom.Buffer, 3)
	for i, m := range ms {
		sw.Attach(m)
		b, err := m.AllocBuffer(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	qps := make([]*strom.QueuePair, 3)
	for i := range ms {
		qp, err := cl.CreateQueuePair(ms[i], ms[(i+1)%3])
		if err != nil {
			t.Fatal(err)
		}
		qps[i] = qp
	}
	// Each machine writes its index+1 to its ring successor.
	for i := range ms {
		i := i
		cl.Go("w", func(p *strom.Process) {
			src := bufs[i].Base() + 4096
			if err := ms[i].Memory().WriteVirt(src, []byte{byte(i + 1)}); err != nil {
				t.Error(err)
				return
			}
			if err := qps[i].WriteSync(p, uint64(src), uint64(bufs[(i+1)%3].Base()), 1); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
	cl.Run()
	for i := range ms {
		got, _ := ms[(i+1)%3].Memory().ReadVirt(bufs[(i+1)%3].Base(), 1)
		if got[0] != byte(i+1) {
			t.Errorf("machine %d did not receive from %d", (i+1)%3, i)
		}
	}
}

// TestFourMachineNetSmoke runs a 4-machine ring of writes through the
// shared-buffer switch on the testrig.Net testbed — unsharded, sharded
// with one worker, and sharded with four — and checks the three runs
// finish at the same simulated time with every payload delivered intact
// and the protocol invariant checkers silent.
func TestFourMachineNetSmoke(t *testing.T) {
	const n = 4
	const xfer = 64 << 10
	const dstOff = hostmem.Addr(128 << 10)
	swCfg := fabric.SwitchConfig{Link: fabric.DirectCable10G(), Forwarding: 500 * sim.Nanosecond}

	run := func(workers int) (sim.Time, [][]byte, int) {
		var (
			net *testrig.Net
			err error
		)
		if workers > 0 {
			net, err = testrig.NewNetSharded(7, n, core.Profile10G(), swCfg, 1<<20, workers)
		} else {
			net, err = testrig.NewNet(7, n, core.Profile10G(), swCfg, 1<<20)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkers := net.AttachCheckers()
		payload := make([][]byte, n)
		for i := range payload {
			payload[i] = make([]byte, xfer)
			rand.New(rand.NewSource(int64(i + 1))).Read(payload[i])
			if err := net.Machines[i].NIC.Memory().WriteVirt(net.Machines[i].Buf.Base(), payload[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Machine i writes its payload to ring successor i+1.
		done := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			j := (i + 1) % n
			qp, _, err := net.Connect(i, j)
			if err != nil {
				t.Fatal(err)
			}
			m := net.Machines[i]
			dst := uint64(net.Machines[j].Buf.Base() + dstOff)
			m.Eng.Schedule(0, func() {
				m.NIC.PostWrite(qp, uint64(m.Buf.Base()), dst, xfer, func(err error) {
					if err != nil {
						t.Errorf("machine %d write: %v", i, err)
					}
					done[i] = true
				})
			})
		}
		end := net.Run()
		got := make([][]byte, n)
		for i := 0; i < n; i++ {
			if !done[i] {
				t.Fatalf("workers=%d: machine %d write never completed", workers, i)
			}
			j := (i + 1) % n
			g, err := net.Machines[j].NIC.Memory().ReadVirt(net.Machines[j].Buf.Base()+dstOff, xfer)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = g
		}
		vio := 0
		for _, c := range checkers {
			vio += len(c.Finish())
		}
		for i := range payload {
			if !bytes.Equal(got[i], payload[i]) {
				t.Errorf("workers=%d: ring write %d corrupted", workers, i)
			}
		}
		return end, got, vio
	}

	endSingle, gotSingle, vioSingle := run(0)
	if vioSingle != 0 {
		t.Fatalf("unsharded run: %d invariant violations", vioSingle)
	}
	for _, workers := range []int{1, 4} {
		end, got, vio := run(workers)
		if vio != 0 {
			t.Fatalf("workers=%d: %d invariant violations", workers, vio)
		}
		if end != endSingle {
			t.Errorf("workers=%d finished at %v, unsharded at %v", workers, end, endSingle)
		}
		for i := range got {
			if !bytes.Equal(got[i], gotSingle[i]) {
				t.Errorf("workers=%d: delivered bytes differ from unsharded run (flow %d)", workers, i)
			}
		}
	}
}

// TestIncastThroughPFCSwitchPublicAPI drives the congestion-controlled
// switch through the public surface alone: AddSwitchCfg with a shared
// buffer pool, PFC watermarks and an ECN threshold, EnableDCQCN on each
// machine, and a 2→1 incast of pipelined 16 KB writes. PFC keeps the
// storm lossless (no discards, no retransmissions), ECN marks reach the
// receiver and come back as CNPs, and every byte lands intact.
func TestIncastThroughPFCSwitchPublicAPI(t *testing.T) {
	cl := strom.NewCluster(21)
	s1, _ := cl.AddMachine("s1", strom.Profile10G())
	s2, _ := cl.AddMachine("s2", strom.Profile10G())
	recv, _ := cl.AddMachine("recv", strom.Profile10G())
	sw := cl.AddSwitchCfg(strom.SwitchConfig{
		Link:              strom.Cable10G(),
		Forwarding:        500 * strom.Nanosecond,
		BufferBytes:       512 << 10,
		PFCPauseBytes:     32 << 10,
		ECNThresholdBytes: 16 << 10,
	})
	for _, m := range []*strom.Machine{s1, s2, recv} {
		sw.Attach(m)
		m.EnableDCQCN()
	}
	qp1, err := cl.CreateQueuePair(s1, recv)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := cl.CreateQueuePair(s2, recv)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := s1.AllocBuffer(4 << 20)
	b2, _ := s2.AllocBuffer(4 << 20)
	br, _ := recv.AllocBuffer(8 << 20)
	const n = 1 << 20
	d1 := make([]byte, n)
	d2 := make([]byte, n)
	rand.New(rand.NewSource(3)).Read(d1)
	rand.New(rand.NewSource(4)).Read(d2)
	if err := s1.Memory().WriteVirt(b1.Base(), d1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Memory().WriteVirt(b2.Base(), d2); err != nil {
		t.Fatal(err)
	}
	// Each sender posts its whole train of 16 KB writes upfront so it
	// pushes at line rate (a stop-and-wait loop would never congest the
	// switch); go-back-N windows stay per-write, so any discard would
	// surface as a handful of retransmissions, not a full-train replay.
	const chunk = 16 << 10
	const writes = n / chunk
	done := 0
	start := func(m *strom.Machine, qpn uint32, src, dst uint64) {
		cl.Engine().Schedule(0, func() {
			for w := 0; w < writes; w++ {
				off := uint64(w * chunk)
				m.NIC().PostWrite(qpn, src+off, dst+off, chunk, func(err error) {
					if err != nil {
						t.Errorf("%s: %v", m.Name(), err)
						return
					}
					done++
				})
			}
		})
	}
	start(s1, qp1.QPNA, uint64(b1.Base()), uint64(br.Base()))
	start(s2, qp2.QPNA, uint64(b2.Base()), uint64(br.Base())+n)
	cl.Run()
	if done != 2*writes {
		t.Fatalf("completions = %d, want %d", done, 2*writes)
	}
	g1, _ := recv.Memory().ReadVirt(br.Base(), n)
	g2, _ := recv.Memory().ReadVirt(br.Base()+n, n)
	if !bytes.Equal(g1, d1) || !bytes.Equal(g2, d2) {
		t.Error("incast corrupted data")
	}
	fsw := sw.Fabric()
	var pauses, marks, discards uint64
	for i := 0; i < fsw.NumPorts(); i++ {
		st := fsw.PortStats(i)
		pauses += st.PauseTx
		marks += st.EcnMarked
		discards += st.Discards
	}
	if discards != 0 {
		t.Errorf("discards = %d through a PFC-protected switch", discards)
	}
	if marks == 0 {
		t.Error("incast never crossed the ECN threshold")
	}
	cnps := s1.NIC().Stack().Stats().CnpsReceived + s2.NIC().Stack().Stats().CnpsReceived
	if cnps == 0 {
		t.Error("senders never received a CNP")
	}
	retr := s1.NIC().Stack().Stats().Retransmissions + s2.NIC().Stack().Stats().Retransmissions
	if retr != 0 {
		t.Errorf("retransmissions = %d in a lossless run", retr)
	}
	_ = pauses // pauses may legitimately be zero: DCQCN throttles first
}
