package strom_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"strom"
	"strom/internal/cpu"
)

func TestPublicConsistentRead(t *testing.T) {
	cl, _, b, qp := twoMachines(t, 5, strom.Profile10G(), strom.Cable10G())
	const rpcOp = 0x03
	if err := b.DeployKernel(rpcOp, strom.NewConsistencyKernel(0)); err != nil {
		t.Fatal(err)
	}
	bufA, _ := qp.A.AllocBuffer(1 << 20)
	bufB, _ := b.AllocBuffer(1 << 20)
	const size = 512
	obj := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(obj)
	cpu.StampCRC64(obj)
	if err := b.Memory().WriteVirt(bufB.Base()+4096, obj); err != nil {
		t.Fatal(err)
	}
	var got []byte
	cl.Go("client", func(p *strom.Process) {
		var err error
		got, err = strom.ConsistentRead(p, qp, rpcOp, strom.ConsistencyParams{
			ObjectAddress:   uint64(bufB.Base()) + 4096,
			ObjectSize:      size,
			ResponseAddress: uint64(bufA.Base()),
		})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	cl.Run()
	if !bytes.Equal(got, obj) {
		t.Error("object mismatch")
	}
}

func TestPublicReceiveShuffle(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 6, strom.Profile10G(), strom.Cable10G())
	const rpcOp = 0x04
	kern := strom.NewShuffleKernel()
	if err := b.DeployKernel(rpcOp, kern); err != nil {
		t.Fatal(err)
	}
	bufA, _ := a.AllocBuffer(2 << 20)
	bufB, _ := b.AllocBuffer(8 << 20)
	const nParts = 8
	const tuples = 4096
	data := make([]byte, tuples*8)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, nParts)
	for i := 0; i < tuples; i++ {
		v := rng.Uint64()
		binary.LittleEndian.PutUint64(data[i*8:], v)
		counts[strom.ShufflePartition(v, nParts)]++
	}
	if err := a.Memory().WriteVirt(bufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	const partRegion = 1 << 18
	table := make([]byte, nParts*8)
	partBase := bufB.Base() + 4096
	for i := 0; i < nParts; i++ {
		binary.LittleEndian.PutUint64(table[i*8:], uint64(partBase)+uint64(i*partRegion))
	}
	if err := b.Memory().WriteVirt(bufB.Base(), table); err != nil {
		t.Fatal(err)
	}
	completion := partBase + strom.Addr(nParts*partRegion+64)
	cl.Go("sender", func(p *strom.Process) {
		params := strom.ShuffleParams{
			TableAddress:      uint64(bufB.Base()),
			NumPartitions:     nParts,
			CompletionAddress: uint64(completion),
		}
		if err := qp.RPCSync(p, rpcOp, params.Encode()); err != nil {
			t.Errorf("params: %v", err)
			return
		}
		if err := qp.RPCWriteSync(p, rpcOp, uint64(bufA.Base()), len(data)); err != nil {
			t.Errorf("stream: %v", err)
			return
		}
		count, err := b.Memory().PollNonZeroWord(p, completion)
		if err != nil {
			t.Errorf("completion: %v", err)
			return
		}
		if count != tuples {
			t.Errorf("count = %d", count)
		}
	})
	cl.Run()
	for pid := 0; pid < nParts; pid++ {
		got, err := b.Memory().ReadVirt(partBase+strom.Addr(pid*partRegion), counts[pid]*8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < counts[pid]; i++ {
			if strom.ShufflePartition(binary.LittleEndian.Uint64(got[i*8:]), nParts) != uint32(pid) {
				t.Fatalf("partition %d holds a stray tuple", pid)
			}
		}
	}
}

func TestPublicRPCFallback(t *testing.T) {
	cl, _, b, qp := twoMachines(t, 7, strom.Profile10G(), strom.Cable10G())
	var fbOp uint64
	b.SetRPCFallback(func(qpn uint32, rpcOp uint64, params []byte) { fbOp = rpcOp })
	cl.Go("client", func(p *strom.Process) {
		if err := qp.RPCSync(p, 0xCAFE, []byte("x")); err != nil {
			t.Errorf("rpc with fallback: %v", err)
		}
	})
	cl.Run()
	if fbOp != 0xCAFE {
		t.Errorf("fallback op = %#x", fbOp)
	}
}

// A queue pair needs a path: machines that share no cable or switch, or
// that belong to different clusters, are refused at CreateQueuePair
// (ConnectDirect refuses a foreign machine before it builds a link),
// instead of being accepted and failing at the first frame.
func TestPublicQueuePairNeedsAPath(t *testing.T) {
	cl := strom.NewCluster(1)
	a, _ := cl.AddMachine("a", strom.Profile10G())
	b, _ := cl.AddMachine("b", strom.Profile10G())
	if _, err := cl.CreateQueuePair(a, b); !errors.Is(err, strom.ErrNotConnected) {
		t.Errorf("unlinked pair: err = %v, want ErrNotConnected", err)
	}

	other := strom.NewCluster(2)
	foreign, _ := other.AddMachine("foreign", strom.Profile10G())
	if _, err := cl.ConnectDirect(a, foreign, strom.Cable10G()); !errors.Is(err, strom.ErrNotConnected) {
		t.Errorf("cross-cluster cable: err = %v, want ErrNotConnected", err)
	}
	if _, err := cl.CreateQueuePair(a, foreign); !errors.Is(err, strom.ErrNotConnected) {
		t.Errorf("cross-cluster pair: err = %v, want ErrNotConnected", err)
	}

	sw := cl.AddSwitch(strom.Cable10G(), 500*strom.Nanosecond)
	sw.Attach(a)
	if _, err := cl.CreateQueuePair(a, b); !errors.Is(err, strom.ErrNotConnected) {
		t.Errorf("one side switched: err = %v, want ErrNotConnected", err)
	}
	sw.Attach(b)
	qp, err := cl.CreateQueuePair(a, b)
	if err != nil {
		t.Fatalf("switched pair: %v", err)
	}
	bufA, _ := a.AllocBuffer(4096)
	bufB, _ := b.AllocBuffer(4096)
	cl.Go("client", func(p *strom.Process) {
		if err := qp.WriteSync(p, uint64(bufA.Base()), uint64(bufB.Base()), 64); err != nil {
			t.Errorf("write over the switch: %v", err)
		}
	})
	cl.Run()
}

func TestPublicRunFor(t *testing.T) {
	cl := strom.NewCluster(1)
	fired := false
	cl.Engine().Schedule(10*strom.Microsecond, func() { fired = true })
	end := cl.RunFor(5 * strom.Microsecond)
	if fired {
		t.Error("event beyond the deadline fired")
	}
	if end != strom.Time(5*strom.Microsecond) || cl.Now() != end {
		t.Errorf("end = %v now = %v", end, cl.Now())
	}
	cl.Run()
	if !fired {
		t.Error("event never fired")
	}
}

func TestPublicAsyncVerbs(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 8, strom.Profile10G(), strom.Cable10G())
	bufA, _ := a.AllocBuffer(1 << 20)
	bufB, _ := b.AllocBuffer(1 << 20)
	if err := b.DeployKernel(1, strom.NewTraversalKernel(0)); err != nil {
		t.Fatal(err)
	}
	completions := 0
	var rpcErr error
	cl.Engine().Schedule(0, func() {
		qp.PostWrite(uint64(bufA.Base()), uint64(bufB.Base()), 64, func(err error) {
			if err == nil {
				completions++
			}
		})
		qp.PostRead(uint64(bufB.Base()), uint64(bufA.Base())+4096, 64, func(err error) {
			if err == nil {
				completions++
			}
		})
		qp.PostRPC(0x99, []byte("nope"), func(err error) { rpcErr = err })
		params := strom.TraversalParams{ValueSize: 8, ResponseAddress: uint64(bufA.Base()) + 8192, KeyMask: 1}
		qp.PostRPCWrite(1, uint64(bufA.Base()), 64, func(err error) {
			if err == nil {
				completions++
			}
		})
		_ = params
	})
	cl.Run()
	if completions != 3 {
		t.Errorf("completions = %d", completions)
	}
	if rpcErr == nil {
		t.Error("RPC to unknown kernel with no fallback should fail")
	}
}
