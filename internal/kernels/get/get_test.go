package get_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"strom/internal/kernels/get"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/testrig"
)

const rpcOp = 0x02

func TestParamsRoundTrip(t *testing.T) {
	f := func(a, k, tgt uint64) bool {
		in := get.Params{Address: a, Key: k, TargetAddr: tgt}
		out, err := get.DecodeParams(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := get.DecodeParams([]byte{1}); err == nil {
		t.Error("short params accepted")
	}
}

func TestGetSingleRoundTrip(t *testing.T) {
	p, err := testrig.New10G(1)
	if err != nil {
		t.Fatal(err)
	}
	k := get.New()
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	region := kvstore.NewRegion(p.B.Memory(), p.BufB)
	ht, err := kvstore.BuildHashTable(region, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const valueSize = 256
	keys := make([]uint64, 0, 64)
	vals := make(map[uint64][]byte)
	for len(keys) < 64 {
		key := rng.Uint64()
		v := make([]byte, valueSize)
		rng.Read(v)
		if err := ht.Put(key, v); err != nil {
			continue
		}
		keys = append(keys, key)
		vals[key] = v
	}
	var rtts []sim.Duration
	p.Eng.Go("client", func(pr *sim.Process) {
		for _, key := range keys {
			params := get.Params{
				Address:    uint64(ht.EntryAddr(key)),
				Key:        key,
				TargetAddr: uint64(p.BufA.Base()),
			}
			statusVA := p.BufA.Base() + valueSize
			if err := p.A.Memory().WriteVirt(statusVA, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
			start := pr.Now()
			if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
				t.Errorf("rpc: %v", err)
				return
			}
			if _, err := p.A.Host().Poll(pr, p.A.Memory(), statusVA, 8, func(b []byte) bool {
				return binary.LittleEndian.Uint64(b) != 0
			}, 0); err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			rtts = append(rtts, pr.Now().Sub(start))
			got, _ := p.A.Memory().ReadVirt(p.BufA.Base(), valueSize)
			if !bytes.Equal(got, vals[key]) {
				t.Errorf("GET(%d): value mismatch", key)
			}
		}
	})
	p.Run()
	if k.Gets() != uint64(len(keys)) {
		t.Errorf("gets = %d", k.Gets())
	}
	if k.Misses() != 0 {
		t.Errorf("misses = %d", k.Misses())
	}
	// The whole GET (entry fetch + value fetch, two PCIe reads, one
	// network round trip) should be well under two network round trips.
	for _, d := range rtts {
		if us := d.Microseconds(); us < 3 || us > 15 {
			t.Errorf("GET latency = %.2f us", us)
			break
		}
	}
}

func TestGetMissFallsBackToBucket0(t *testing.T) {
	// The paper's listing picks bucket 0 when nothing matches; verify the
	// quirk is reproduced and counted.
	p, err := testrig.New10G(2)
	if err != nil {
		t.Fatal(err)
	}
	k := get.New()
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	region := kvstore.NewRegion(p.B.Memory(), p.BufB)
	ht, _ := kvstore.BuildHashTable(region, 1)
	if err := ht.Put(111, []byte("bucket0 value...")); err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		params := get.Params{Address: uint64(ht.EntryAddr(999)), Key: 999, TargetAddr: uint64(p.BufA.Base())}
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
			t.Errorf("rpc: %v", err)
		}
		statusVA := p.BufA.Base() + 16
		if _, err := p.A.Host().Poll(pr, p.A.Memory(), statusVA, 8, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b) != 0
		}, 0); err != nil {
			t.Errorf("poll: %v", err)
		}
	})
	p.Run()
	if k.Misses() != 1 {
		t.Errorf("misses = %d", k.Misses())
	}
	got, _ := p.A.Memory().ReadVirt(p.BufA.Base(), 16)
	if string(got) != "bucket0 value..." {
		t.Errorf("got %q", got)
	}
}

func TestGetBadEntryAddressReportsError(t *testing.T) {
	p, err := testrig.New10G(3)
	if err != nil {
		t.Fatal(err)
	}
	k := get.New()
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		params := get.Params{Address: 0xBAD0000, Key: 1, TargetAddr: uint64(p.BufA.Base())}
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params.Encode()); err != nil {
			t.Errorf("rpc: %v", err)
		}
		raw, err := p.A.Host().Poll(pr, p.A.Memory(), p.BufA.Base(), 8, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b) != 0
		}, 0)
		if err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		if binary.LittleEndian.Uint64(raw) != get.StatusError {
			t.Errorf("status = %d", binary.LittleEndian.Uint64(raw))
		}
	})
	p.Run()
}
