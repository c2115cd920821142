package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/tcprpc"
	"strom/internal/testrig"
)

const traversalOp = 0x01

// fig7Lengths is Fig. 7's x axis.
var fig7Lengths = []int{4, 8, 16, 32}

// lookupSeries are the three approaches of Figs. 7 and 8, in the order
// lookupLatencies returns their samples.
var lookupSeries = []string{"RDMA READ", "StRoM", "TCP-based RPC"}

// Fig7LinkedList reproduces Fig. 7: latency of looking a random key up in
// a remote linked list (64 B values) with three approaches — one-sided
// RDMA READ pointer chasing from the client, the StRoM traversal kernel,
// and a TCP-based RPC executed by the remote CPU.
func Fig7LinkedList(o Options) (*stats.Figure, error) {
	o = o.normalized()
	return bandsFigure("Fig 7: remote linked-list traversal (value 64B)", "list length", fig7Lengths, strconv.Itoa,
		lookupSeries, func(n int) ([]*stats.Sample, error) { return listLookupLatencies(o, n, 64) })
}

// listLookupLatencies runs the three approaches against the same list.
func listLookupLatencies(o Options, listLen, valueSize int) ([]*stats.Sample, error) {
	pair, err := newPair(o, profile10G(), 16<<20)
	if err != nil {
		return nil, err
	}
	region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
	keys := make([]uint64, listLen)
	values := make([][]byte, listLen)
	rng := rand.New(rand.NewSource(o.Seed + int64(listLen)))
	for i := range keys {
		keys[i] = uint64(i + 1)
		values[i] = make([]byte, valueSize)
		rng.Read(values[i])
	}
	list, err := kvstore.BuildList(region, keys, values)
	if err != nil {
		return nil, err
	}
	// Conventional RDMA READ: one network round trip per element plus one
	// for the value (Pilaf/FaRM style).
	read := func(p *sim.Process, key uint64) error {
		got, err := clientSideListLookup(p, pair, list, key, valueSize)
		if err == nil && got == nil {
			err = fmt.Errorf("RDMA READ lookup lost key %d", key)
		}
		return err
	}
	// The TCP RPC server's CPU walks the same list, charged 80 ns per
	// element visited; key i sits at position i (1-based).
	serve := func(key uint64) ([]byte, sim.Duration) {
		val, ok := list.Get(key)
		hops := int(key)
		if !ok {
			hops = listLen
		}
		return val, sim.Duration(hops) * pair.B.Host().MemLatency
	}
	return lookupLatencies(o, pair, keys, rng, read, func(key uint64) traversal.Params {
		return list.TraversalParams(key, pair.BufA.Base())
	}, serve)
}

// lookupLatencies deploys the traversal kernel on B and times
// o.Iterations lookups of keys drawn from rng, each three ways in turn:
// read from A with one-sided verbs, one traversal-kernel RPC with
// params(key), and a TCP RPC whose server answers and charges with serve.
func lookupLatencies(o Options, pair *testrig.Pair, keys []uint64, rng *rand.Rand, read func(*sim.Process, uint64) error,
	params func(uint64) traversal.Params, serve func(uint64) ([]byte, sim.Duration)) ([]*stats.Sample, error) {
	if err := pair.B.DeployKernel(traversalOp, traversal.New(0)); err != nil {
		return nil, err
	}
	srv := tcprpc.NewServer(pair.Eng, tcprpc.Default(), func(req []byte) ([]byte, sim.Duration) {
		return serve(binary.LittleEndian.Uint64(req))
	})
	rd, strom, tcp := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
	err := runClient(pair, func(p *sim.Process) error {
		for i := 0; i < o.Iterations; i++ {
			key := keys[rng.Intn(len(keys))]
			start := p.Now()
			if err := read(p, key); err != nil {
				return err
			}
			rd.Add(p.Now().Sub(start).Microseconds())

			start = p.Now()
			if _, err := traversal.Lookup(p, pair.A, testrig.QPA, traversalOp, params(key)); err != nil {
				return err
			}
			strom.Add(p.Now().Sub(start).Microseconds())

			start = p.Now()
			srv.Call(p, binary.LittleEndian.AppendUint64(nil, key))
			tcp.Add(p.Now().Sub(start).Microseconds())
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return []*stats.Sample{rd, strom, tcp}, nil
}

// clientSideListLookup chases pointers with one-sided READs: element by
// element over the network, then the value.
func clientSideListLookup(p *sim.Process, pair *testrig.Pair, list *kvstore.List, key uint64, valueSize int) ([]byte, error) {
	scratch := pair.BufA.Base() + 4<<20
	addr := uint64(list.Head)
	host := pair.A.Host()
	for addr != 0 {
		if err := pair.A.ReadSync(p, testrig.QPA, addr, uint64(scratch), traversal.ElementSize); err != nil {
			return nil, err
		}
		elem, err := pair.A.Memory().ReadVirt(scratch, traversal.ElementSize)
		if err != nil {
			return nil, err
		}
		p.Sleep(host.MemLatency) // client-side parse of the element
		if binary.LittleEndian.Uint64(elem[0:8]) == key {
			valueVA := binary.LittleEndian.Uint64(elem[16:24])
			if err := pair.A.ReadSync(p, testrig.QPA, valueVA, uint64(scratch), valueSize); err != nil {
				return nil, err
			}
			return pair.A.Memory().ReadVirt(scratch, valueSize)
		}
		addr = binary.LittleEndian.Uint64(elem[8:16])
	}
	return nil, nil
}

// fig8ValueSizes is Fig. 8's x axis.
var fig8ValueSizes = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Fig8HashTable reproduces Fig. 8: latency of a remote hash-table GET
// (Pilaf layout, entry always matches) with the three approaches, varying
// the value size.
func Fig8HashTable(o Options) (*stats.Figure, error) {
	o = o.normalized()
	return bandsFigure("Fig 8: remote hash table lookup", "value size", fig8ValueSizes, sizeLabel,
		lookupSeries, func(vs int) ([]*stats.Sample, error) { return hashGetLatencies(o, vs) })
}

func hashGetLatencies(o Options, valueSize int) ([]*stats.Sample, error) {
	pair, err := newPair(o, profile10G(), 24<<20)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed + int64(valueSize)))
	ht, keys, err := randomHashTable(pair, rng, 4096, 256, valueSize)
	if err != nil {
		return nil, err
	}
	// Two RDMA READs: entry, then value (the best case the paper assumes).
	scratch := pair.BufA.Base() + 8<<20
	read := func(p *sim.Process, key uint64) error {
		return twoReadGet(p, pair, testrig.QPA, ht, key, valueSize, scratch)
	}
	serve := func(key uint64) ([]byte, sim.Duration) {
		val, _ := ht.Get(key)
		return val, 2 * pair.B.Host().MemLatency // entry + value accesses
	}
	return lookupLatencies(o, pair, keys, rng, read, func(key uint64) traversal.Params {
		return ht.TraversalParams(key, valueSize, pair.BufA.Base())
	}, serve)
}

// randomHashTable builds a Pilaf hash table of entries entries in B's
// buffer and puts n random keys into it, each with a random
// valueSize-byte value, key then value drawn from rng. A key whose entry
// is full is redrawn; any other failed Put is the error. It returns the
// keys in the order they were put.
func randomHashTable(pair *testrig.Pair, rng *rand.Rand, entries, n, valueSize int) (*kvstore.HashTable, []uint64, error) {
	ht, err := kvstore.BuildHashTable(kvstore.NewRegion(pair.B.Memory(), pair.BufB), entries)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()
		v := make([]byte, valueSize)
		rng.Read(v)
		switch err := ht.Put(k, v); {
		case errors.Is(err, kvstore.ErrBucketsFull):
		case err != nil:
			return nil, nil, err
		default:
			keys = append(keys, k)
		}
	}
	return ht, keys, nil
}

// twoReadGet is the Pilaf GET over one-sided verbs on queue pair qpn:
// READ key's entry into scratch, find the key's bucket on A's CPU, then
// READ the value over the entry. The value is left in scratch.
func twoReadGet(p *sim.Process, pair *testrig.Pair, qpn uint32, ht *kvstore.HashTable, key uint64, valueSize int, scratch hostmem.Addr) error {
	if err := pair.A.ReadSync(p, qpn, uint64(ht.EntryAddr(key)), uint64(scratch), kvstore.HTEntrySize); err != nil {
		return err
	}
	entry, err := pair.A.Memory().ReadVirt(scratch, kvstore.HTEntrySize)
	if err != nil {
		return err
	}
	p.Sleep(pair.A.Host().MemLatency)
	for b := 0; b < kvstore.HTBuckets; b++ {
		off := b * kvstore.HTBucketStride
		if binary.LittleEndian.Uint64(entry[off:]) == key {
			return pair.A.ReadSync(p, qpn, binary.LittleEndian.Uint64(entry[off+8:]), uint64(scratch), valueSize)
		}
	}
	return fmt.Errorf("key %d not in its entry", key)
}
