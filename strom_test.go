package strom_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"strom"
	"strom/internal/kernels/traversal"
)

// twoMachines builds the standard testbed through the public API only.
func twoMachines(t *testing.T, seed int64, profile strom.Profile, cable strom.Cable) (*strom.Cluster, *strom.Machine, *strom.Machine, *strom.QueuePair) {
	t.Helper()
	cl := strom.NewCluster(seed)
	a, err := cl.AddMachine("client", profile)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.AddMachine("server", profile)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := cl.ConnectDirect(a, b, cable)
	if err != nil {
		t.Fatal(err)
	}
	return cl, a, b, qp
}

func TestClusterAssembly(t *testing.T) {
	cl := strom.NewCluster(1)
	a, err := cl.AddMachine("a", strom.Profile10G())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddMachine("a", strom.Profile10G()); !errors.Is(err, strom.ErrDuplicateMachine) {
		t.Errorf("duplicate machine err = %v", err)
	}
	if a.Name() != "a" {
		t.Errorf("name = %q", a.Name())
	}
}

// A cluster numbers 254 machines, each with its own identity; the 255th
// is a typed error, not a wrap onto an address already in use.
func TestClusterMachineLimit(t *testing.T) {
	cl := strom.NewCluster(1)
	seen := map[strom.Identity]string{}
	for i := 1; i <= 254; i++ {
		name := fmt.Sprintf("m%d", i)
		m, err := cl.AddMachine(name, strom.Profile10G())
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		id := m.NIC().Identity()
		if prev, dup := seen[id]; dup {
			t.Fatalf("%s and %s share the identity %v", prev, name, id)
		}
		seen[id] = name
	}
	if _, err := cl.AddMachine("m255", strom.Profile10G()); !errors.Is(err, strom.ErrTooManyMachines) {
		t.Errorf("machine 255: err = %v, want ErrTooManyMachines", err)
	}
}

func TestPublicWriteRead(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 1, strom.Profile10G(), strom.Cable10G())
	bufA, err := a.AllocBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := b.AllocBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("public API write")
	var readBack []byte
	cl.Go("app", func(p *strom.Process) {
		if err := a.Memory().WriteVirt(bufA.Base(), payload); err != nil {
			t.Error(err)
			return
		}
		if err := qp.WriteSync(p, uint64(bufA.Base()), uint64(bufB.Base()), len(payload)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := b.Memory().ReadVirt(bufB.Base(), len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("remote memory = %q (%v)", got, err)
		}
		// Read it back over the wire into a different offset.
		if err := qp.ReadSync(p, uint64(bufB.Base()), uint64(bufA.Base())+4096, len(payload)); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		readBack, _ = a.Memory().ReadVirt(bufA.Base()+4096, len(payload))
	})
	end := cl.Run()
	if !bytes.Equal(readBack, payload) {
		t.Errorf("read back %q", readBack)
	}
	if end == 0 {
		t.Error("simulation did not advance")
	}
}

func TestPublicReverseQueuePair(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 1, strom.Profile10G(), strom.Cable10G())
	bufA, _ := a.AllocBuffer(1 << 20)
	bufB, _ := b.AllocBuffer(1 << 20)
	rev := qp.Reverse()
	cl.Go("server-push", func(p *strom.Process) {
		if err := b.Memory().WriteVirt(bufB.Base(), []byte{0xAB}); err != nil {
			t.Error(err)
			return
		}
		if err := rev.WriteSync(p, uint64(bufB.Base()), uint64(bufA.Base()), 1); err != nil {
			t.Errorf("reverse write: %v", err)
		}
	})
	cl.Run()
	got, _ := a.Memory().ReadVirt(bufA.Base(), 1)
	if got[0] != 0xAB {
		t.Error("reverse direction write failed")
	}
}

func TestPublicTraversalKernel(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 1, strom.Profile10G(), strom.Cable10G())
	const rpcOp = 7
	if err := b.DeployKernel(rpcOp, strom.NewTraversalKernel(0)); err != nil {
		t.Fatal(err)
	}
	bufA, _ := a.AllocBuffer(1 << 20)
	bufB, _ := b.AllocBuffer(4 << 20)
	region := strom.NewKVRegion(b, bufB)
	keys := []uint64{10, 20, 30}
	values := [][]byte{[]byte("vvvvvvv10"), []byte("vvvvvvv20"), []byte("vvvvvvv30")}
	list, err := strom.BuildKVList(region, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	cl.Go("client", func(p *strom.Process) {
		params := list.TraversalParams(20, bufA.Base())
		got, err := strom.TraversalLookup(p, qp, rpcOp, params)
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		if string(got) != "vvvvvvv20" {
			t.Errorf("got %q", got)
		}
		if _, err := strom.TraversalLookup(p, qp, rpcOp, list.TraversalParams(99, bufA.Base())); !errors.Is(err, traversal.ErrNotFound) {
			t.Errorf("missing key err = %v", err)
		}
	})
	cl.Run()
}

func TestPublicHashTableAndGetKernel(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 2, strom.Profile10G(), strom.Cable10G())
	const rpcOp = 9
	k := strom.NewGetKernel()
	if err := b.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	bufA, _ := a.AllocBuffer(1 << 20)
	bufB, _ := b.AllocBuffer(8 << 20)
	region := strom.NewKVRegion(b, bufB)
	ht, err := strom.BuildKVHashTable(region, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const valueSize = 64
	type kv struct {
		k uint64
		v []byte
	}
	var items []kv
	for len(items) < 32 {
		key := rng.Uint64()
		v := make([]byte, valueSize)
		rng.Read(v)
		if err := ht.Put(key, v); err != nil {
			continue
		}
		items = append(items, kv{key, v})
	}
	cl.Go("client", func(p *strom.Process) {
		for _, it := range items {
			params := strom.GetParams{
				Address:    uint64(ht.EntryAddr(it.k)),
				Key:        it.k,
				TargetAddr: uint64(bufA.Base()),
			}
			statusVA := bufA.Base() + valueSize
			if err := a.Memory().WriteVirt(statusVA, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
			if err := qp.RPCSync(p, rpcOp, params.Encode()); err != nil {
				t.Errorf("rpc: %v", err)
				return
			}
			if err := a.Memory().PollNonZero(p, statusVA); err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			got, _ := a.Memory().ReadVirt(bufA.Base(), valueSize)
			if !bytes.Equal(got, it.v) {
				t.Errorf("GET(%d) mismatch", it.k)
			}
		}
	})
	cl.Run()
	if k.Gets() != uint64(len(items)) {
		t.Errorf("gets = %d", k.Gets())
	}
}

func TestPublicHLLKernelStream(t *testing.T) {
	cl, a, b, qp := twoMachines(t, 3, strom.Profile100G(), strom.Cable100G())
	const rpcOp = 11
	k, err := strom.NewHLLKernel(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	bufA, _ := a.AllocBuffer(4 << 20)
	bufB, _ := b.AllocBuffer(4 << 20)
	const items = 20000
	data := make([]byte, items*8)
	for i := 0; i < items; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i))
	}
	if err := a.Memory().WriteVirt(bufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	resultVA := bufB.Base() + 2<<20
	cl.Go("client", func(p *strom.Process) {
		params := strom.HLLParams{ResultAddress: uint64(resultVA), Reset: true}
		if err := qp.RPCSync(p, rpcOp, params.Encode()); err != nil {
			t.Errorf("params: %v", err)
			return
		}
		if err := qp.RPCWriteSync(p, rpcOp, uint64(bufA.Base()), len(data)); err != nil {
			t.Errorf("stream: %v", err)
		}
	})
	cl.Run()
	est := k.Estimate()
	if est < items*95/100 || est > items*105/100 {
		t.Errorf("estimate = %.0f, want ~%d", est, items)
	}
}

func TestNICResources(t *testing.T) {
	cl := strom.NewCluster(1)
	m, _ := cl.AddMachine("m", strom.Profile10G())
	if err := m.DeployKernel(1, strom.NewTraversalKernel(0)); err != nil {
		t.Fatal(err)
	}
	base, kernels := strom.NICResources(m)
	if base.LUTs < 80000 || base.LUTs > 100000 {
		t.Errorf("base LUTs = %d", base.LUTs)
	}
	if kernels.LUTs == 0 {
		t.Error("kernel resources empty")
	}
}

func TestShufflePartitionHelper(t *testing.T) {
	if strom.ShufflePartition(0x1F, 16) != 0xF {
		t.Error("partition helper wrong")
	}
}

func TestVersionAndProfiles(t *testing.T) {
	if strom.Version == "" {
		t.Error("empty version")
	}
	if strom.Profile10G().Roce.LineRateGbps != 10 || strom.Profile100G().Roce.LineRateGbps != 100 {
		t.Error("profile rates wrong")
	}
}
