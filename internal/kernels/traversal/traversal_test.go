package traversal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/testrig"
)

const rpcOp = 0x01

func newBed(t *testing.T, seed int64) (*testrig.Pair, *traversal.Kernel, *kvstore.Region) {
	t.Helper()
	p, err := testrig.New10G(seed)
	if err != nil {
		t.Fatal(err)
	}
	k := traversal.New(0)
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	return p, k, kvstore.NewRegion(p.B.Memory(), p.BufB)
}

func TestParamsEncodeDecodeRoundTrip(t *testing.T) {
	f := func(addr, key, resp uint64, vs uint32, mask uint16, pred, vpos, npos uint8, rel, nvalid bool, hops uint16) bool {
		in := traversal.Params{
			RemoteAddress: addr, ValueSize: vs, Key: key, KeyMask: mask,
			PredicateOp:      traversal.Predicate(pred % 4),
			ValuePtrPosition: vpos, IsRelativePosition: rel,
			NextElementPtrPosition: npos, NextElementPtrValid: nvalid,
			ResponseAddress: resp, MaxHops: hops,
		}
		out, err := traversal.DecodeParams(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, err := traversal.DecodeParams([]byte{1, 2, 3}); err == nil {
		t.Error("short params accepted")
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		p    traversal.Predicate
		a, b uint64
		want bool
	}{
		{traversal.Equal, 5, 5, true},
		{traversal.Equal, 5, 6, false},
		{traversal.LessThan, 4, 5, true},
		{traversal.LessThan, 5, 5, false},
		{traversal.GreaterThan, 6, 5, true},
		{traversal.GreaterThan, 5, 5, false},
		{traversal.NotEqual, 5, 6, true},
		{traversal.NotEqual, 5, 5, false},
		{traversal.Predicate(9), 5, 5, false},
	}
	for _, c := range cases {
		if got := c.p.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v", c.p, c.a, c.b, got)
		}
	}
}

func TestLinkedListLookup(t *testing.T) {
	p, k, region := newBed(t, 1)
	keys := []uint64{100, 200, 300, 400, 500, 600, 700, 800}
	values := make([][]byte, len(keys))
	rng := rand.New(rand.NewSource(2))
	for i := range values {
		values[i] = make([]byte, 64)
		rng.Read(values[i])
	}
	list, err := kvstore.BuildList(region, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		for i, key := range keys {
			params := list.TraversalParams(key, p.BufA.Base())
			got, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, params)
			if err != nil {
				t.Errorf("lookup %d: %v", key, err)
				continue
			}
			if !bytes.Equal(got, values[i]) {
				t.Errorf("lookup %d: value mismatch", key)
			}
		}
	})
	p.Run()
	st := k.Stats()
	if st.Found != uint64(len(keys)) {
		t.Errorf("found = %d", st.Found)
	}
	// Total hops = 1+2+...+8 = 36 (position of each key in the list).
	if st.Hops != 36 {
		t.Errorf("hops = %d, want 36", st.Hops)
	}
}

func TestLinkedListNotFound(t *testing.T) {
	p, k, region := newBed(t, 1)
	list, err := kvstore.BuildList(region, []uint64{1, 2, 3}, [][]byte{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		_, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, list.TraversalParams(99, p.BufA.Base()))
		if !errors.Is(err, traversal.ErrNotFound) {
			t.Errorf("err = %v", err)
		}
	})
	p.Run()
	if k.Stats().NotFound != 1 {
		t.Errorf("notFound = %d", k.Stats().NotFound)
	}
}

func TestHashTableLookupRelativeValuePtr(t *testing.T) {
	p, _, region := newBed(t, 1)
	ht, err := kvstore.BuildHashTable(region, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const valueSize = 128
	keys := make([]uint64, 0, 200)
	vals := make(map[uint64][]byte)
	for len(keys) < 200 {
		k := rng.Uint64()
		v := make([]byte, valueSize)
		rng.Read(v)
		if err := ht.Put(k, v); err != nil {
			continue
		}
		keys = append(keys, k)
		vals[k] = v
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		for _, key := range keys[:50] {
			params := ht.TraversalParams(key, valueSize, p.BufA.Base())
			got, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, params)
			if err != nil {
				t.Errorf("lookup %d: %v", key, err)
				continue
			}
			if !bytes.Equal(got, vals[key]) {
				t.Errorf("lookup %d: mismatch", key)
			}
		}
	})
	p.Run()
}

func TestTraversalLatencySublinear(t *testing.T) {
	// Fig. 7's key point: StRoM latency grows by ~1.5 us (PCIe) per
	// element, not ~5 us (network RTT).
	lat := func(listLen int) sim.Duration {
		p, _, region := newBed(t, int64(listLen))
		keys := make([]uint64, listLen)
		values := make([][]byte, listLen)
		for i := range keys {
			keys[i] = uint64(i + 1)
			values[i] = make([]byte, 64)
		}
		list, err := kvstore.BuildList(region, keys, values)
		if err != nil {
			t.Fatal(err)
		}
		var d sim.Duration
		p.Eng.Go("client", func(pr *sim.Process) {
			start := pr.Now()
			// Look up the last key: worst case, full traversal.
			if _, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, list.TraversalParams(uint64(listLen), p.BufA.Base())); err != nil {
				t.Errorf("lookup: %v", err)
			}
			d = pr.Now().Sub(start)
		})
		p.Run()
		return d
	}
	l4, l32 := lat(4), lat(32)
	perHop := (l32 - l4).Microseconds() / 28
	if perHop < 1.2 || perHop > 2.5 {
		t.Errorf("per-hop cost = %.2f us, want ~1.5 (PCIe, not network)", perHop)
	}
}

func TestSortedListSuccessorViaKernel(t *testing.T) {
	// GREATER_THAN over an ascending list: the kernel returns the value
	// of the first key above the probe in one round trip — and must agree
	// with a scan of the sorted keys.
	p, _, region := newBed(t, 21)
	rng := rand.New(rand.NewSource(21))
	const n = 30
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(500)) * 2
	}
	slices.Sort(keys)
	values := make([][]byte, n)
	for i, k := range keys {
		values[i] = binary.LittleEndian.AppendUint64(nil, k)
	}
	list, err := kvstore.BuildList(region, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		for probe := uint64(1); probe < 1000; probe += 111 {
			params := list.TraversalParams(probe, p.BufA.Base())
			params.PredicateOp = traversal.GreaterThan
			got, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, params)
			i, _ := slices.BinarySearch(keys, probe+1)
			if i == n {
				if !errors.Is(err, traversal.ErrNotFound) {
					t.Errorf("probe %d: err = %v, no key is above it", probe, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("probe %d: %v", probe, err)
				continue
			}
			if !bytes.Equal(got, values[i]) {
				t.Errorf("probe %d: kernel %x, successor %x", probe, got, values[i])
			}
		}
	})
	p.Run()
}

func TestMaxHopsTerminatesCycle(t *testing.T) {
	p, k, region := newBed(t, 1)
	// Build a 2-element cycle with keys that never match.
	e1, _ := region.Alloc(traversal.ElementSize)
	e2, _ := region.Alloc(traversal.ElementSize)
	mkElem := func(next hostmem.Addr) []byte {
		e := make([]byte, traversal.ElementSize)
		binary.LittleEndian.PutUint64(e[0:], 1) // key 1
		binary.LittleEndian.PutUint64(e[8:], uint64(next))
		return e
	}
	p.B.Memory().WriteVirt(e1, mkElem(e2))
	p.B.Memory().WriteVirt(e2, mkElem(e1))
	params := traversal.Params{
		RemoteAddress: uint64(e1), ValueSize: 8, Key: 42, KeyMask: 1,
		PredicateOp: traversal.Equal, NextElementPtrPosition: 2,
		NextElementPtrValid: true, ResponseAddress: uint64(p.BufA.Base()),
		MaxHops: 10,
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		_, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, params)
		if !errors.Is(err, traversal.ErrNotFound) {
			t.Errorf("err = %v", err)
		}
	})
	p.Run()
	if k.Stats().Hops != 10 {
		t.Errorf("hops = %d, want 10 (MaxHops)", k.Stats().Hops)
	}
}

func TestBadPointerReportsError(t *testing.T) {
	// A wild value pointer leaves registered memory: the NIC's DMA sandbox
	// rejects the hop, the kernel terminates deterministically with
	// StatusFault in the completion, and the fault counters tick. No
	// ErrNotMapped ever reaches the DMA engine.
	p, k, region := newBed(t, 1)
	e1, _ := region.Alloc(traversal.ElementSize)
	elem := make([]byte, traversal.ElementSize)
	binary.LittleEndian.PutUint64(elem[0:], 5)           // key 5 matches
	binary.LittleEndian.PutUint64(elem[16:], 0xDEAD0000) // wild value pointer
	p.B.Memory().WriteVirt(e1, elem)
	params := traversal.Params{
		RemoteAddress: uint64(e1), ValueSize: 8, Key: 5, KeyMask: 1,
		PredicateOp: traversal.Equal, ValuePtrPosition: 4,
		ResponseAddress: uint64(p.BufA.Base()),
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		_, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, params)
		if !errors.Is(err, traversal.ErrFault) {
			t.Errorf("err = %v, want ErrFault", err)
		}
	})
	p.Run()
	if k.Stats().MRFaults != 1 {
		t.Errorf("kernel MRFaults = %d, want 1", k.Stats().MRFaults)
	}
	if got := p.B.Stats().KernelMRFaults; got != 1 {
		t.Errorf("NIC KernelMRFaults = %d, want 1", got)
	}
}

func TestSandboxedChaseTerminatesDeterministically(t *testing.T) {
	// A next-element pointer aimed outside every registered region: the
	// traversal must stop at that hop with StatusFault — identically on
	// two runs at the same seed — instead of chasing into unmapped space.
	for run := 0; run < 2; run++ {
		p, k, region := newBed(t, 11)
		e1, _ := region.Alloc(traversal.ElementSize)
		elem := make([]byte, traversal.ElementSize)
		binary.LittleEndian.PutUint64(elem[0:], 99)    // key that never matches
		binary.LittleEndian.PutUint64(elem[8:], 1<<40) // next ptr far outside
		p.B.Memory().WriteVirt(e1, elem)
		params := traversal.Params{
			RemoteAddress: uint64(e1), ValueSize: 8, Key: 5, KeyMask: 1,
			PredicateOp: traversal.Equal, NextElementPtrPosition: 2,
			NextElementPtrValid: true, ResponseAddress: uint64(p.BufA.Base()),
			MaxHops: 100,
		}
		p.Eng.Go("client", func(pr *sim.Process) {
			_, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, params)
			if !errors.Is(err, traversal.ErrFault) {
				t.Errorf("run %d: err = %v, want ErrFault", run, err)
			}
		})
		p.Run()
		if st := k.Stats(); st.Hops != 2 || st.MRFaults != 1 {
			t.Errorf("run %d: hops=%d mrFaults=%d, want 2 hops and 1 fault", run, st.Hops, st.MRFaults)
		}
	}
}

func TestKernelAgreesWithReferenceProperty(t *testing.T) {
	// Random structures with random parameters: the kernel and the
	// host-side reference must agree on found/not-found and on the value.
	p, _, region := newBed(t, 7)
	rng := rand.New(rand.NewSource(9))
	type testCase struct {
		params traversal.Params
	}
	var cases []testCase
	// Build several random lists with varying predicates.
	for c := 0; c < 12; c++ {
		n := rng.Intn(10) + 1
		keys := make([]uint64, n)
		values := make([][]byte, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(20))
			values[i] = make([]byte, 16)
			rng.Read(values[i])
		}
		list, err := kvstore.BuildList(region, keys, values)
		if err != nil {
			t.Fatal(err)
		}
		params := list.TraversalParams(uint64(rng.Intn(25)), p.BufA.Base())
		params.PredicateOp = traversal.Predicate(rng.Intn(4))
		cases = append(cases, testCase{params})
	}
	p.Eng.Go("client", func(pr *sim.Process) {
		for i, c := range cases {
			refVal, refStatus := traversal.Reference(p.B.Memory(), c.params, 1024)
			got, err := traversal.Lookup(pr, p.A, testrig.QPA, rpcOp, c.params)
			switch refStatus {
			case traversal.StatusFound:
				if err != nil {
					t.Errorf("case %d: kernel err %v, reference found", i, err)
				} else if !bytes.Equal(got, refVal) {
					t.Errorf("case %d: value mismatch", i)
				}
			case traversal.StatusNotFound:
				if !errors.Is(err, traversal.ErrNotFound) {
					t.Errorf("case %d: kernel err %v, reference not-found", i, err)
				}
			}
		}
	})
	p.Run()
}

func TestStreamIsNoOp(t *testing.T) {
	k := traversal.New(0)
	k.Stream(nil, 0, []byte{1, 2, 3}, true) // must not panic
}

func TestResourcesFitBesideNIC(t *testing.T) {
	k := traversal.New(0)
	r := k.Resources()
	if r.LUTs <= 0 || r.FFs <= 0 {
		t.Error("empty resource estimate")
	}
}
