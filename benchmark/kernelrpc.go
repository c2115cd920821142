package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/crc"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/kernels/shuffle"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/testrig"
)

// Shape of the kernel-rpc workload.
const (
	krpcClients     = 2
	krpcEntries     = 4096 // hash-table entries on the serving machine
	krpcKeys        = 3072 // keys inserted (a quarter of the bucket capacity)
	krpcObjects     = 256
	krpcObjectBytes = 4096 // CRC64 in the trailing 8 bytes
	krpcStreamBytes = 16 << 10
	krpcPartitions  = 64
	krpcSourceBytes = 1 << 20 // tuple source region on the client machine
	krpcRespBytes   = 8192    // per-client response landing area
	krpcBufB        = 8 << 20

	traversalOp   uint64 = 0x01
	consistencyOp uint64 = 0x03
	shuffleOpBase uint64 = 0x10 // one shuffle kernel per client: a kernel holds one session
)

var krpcValueSizes = [3]int{64, 256, 1024}

// krpcInput is the generated content of both machines' memory.
type krpcInput struct {
	keys    []uint64 // keys that fit the table; value size is fixed by index mod 3
	objects []byte   // krpcObjects stamped objects, back to back
	tuples  []byte   // the client's tuple source region
}

// krpcValue is the value stored under a key: any reader can recompute it.
func krpcValue(key uint64, n int) []byte {
	out := make([]byte, n)
	x := key
	for i := 0; i+8 <= n; i += 8 {
		x = x*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
		binary.LittleEndian.PutUint64(out[i:], x^(x>>29))
	}
	return out
}

func kernelRPCWorkload(ops int) *workload {
	return &workload{
		name: "kernel-rpc",
		why:  "traversal GET, consistency read and shuffle stream from two client processes on the 10 G pair: the kernel framework, kernel-issued DMA and process park/wake; bypasses switch and kvserve",
		ops:  ops, clients: krpcClients,
		generate: generateKernelRPC,
		setup: func(images any, seed int64, o roundOpts) (testbed, error) {
			return newKernelRPCBed(images.(*krpcInput), seed, o)
		},
	}
}

func generateKernelRPC(rng *rand.Rand, n int) ([]op, any) {
	in := &krpcInput{
		objects: make([]byte, krpcObjects*krpcObjectBytes),
		tuples:  make([]byte, krpcSourceBytes),
	}
	rng.Read(in.objects)
	for i := 0; i < krpcObjects; i++ {
		obj := in.objects[i*krpcObjectBytes : (i+1)*krpcObjectBytes]
		binary.LittleEndian.PutUint64(obj[krpcObjectBytes-8:], crc.Checksum64(obj[:krpcObjectBytes-8]))
	}
	rng.Read(in.tuples)
	// Keep the keys a three-bucket entry has room for, decided on a
	// scratch table through the same Put the testbed will use.
	mem := hostmem.New(8)
	buf, err := mem.Allocate(krpcBufB)
	if err != nil {
		panic(err) // 8 pages hold 8 MiB by construction
	}
	ht, err := kvstore.BuildHashTable(kvstore.NewRegion(mem, buf), krpcEntries)
	if err != nil {
		panic(err)
	}
	for len(in.keys) < krpcKeys {
		key := rng.Uint64()>>1 + 1
		if _, dup := ht.Get(key); dup {
			continue
		}
		if ht.Put(key, nil) == nil {
			in.keys = append(in.keys, key)
		}
	}
	out := make([]op, n)
	var lookups [krpcClients]int
	for i, kind := range mixKinds(rng, n, krpcClients, []opKind{opTraversal, opConsist, opShuffle}, []int{50, 25, 25}) {
		switch kind {
		case opTraversal:
			// Each client's lookups take the three value sizes in turn, so a
			// third of them are of each size on every seed.
			class := lookups[i%krpcClients] % 3
			lookups[i%krpcClients]++
			k := rng.Intn(len(in.keys)/3)*3 + class
			out[i] = op{kind: opTraversal, arg: uint64(k), size: krpcValueSizes[class]}
		case opConsist:
			out[i] = op{kind: opConsist, arg: uint64(rng.Intn(krpcObjects)), size: krpcObjectBytes}
		default:
			off := rng.Intn((krpcSourceBytes-krpcStreamBytes)/8+1) * 8
			out[i] = op{kind: opShuffle, arg: uint64(off), size: krpcStreamBytes}
		}
	}
	return out, in
}

// krpcClient is one client process's private state on both machines.
type krpcClient struct {
	qp         uint32
	shufOp     uint64
	resp       hostmem.Addr // landing area on A
	table      hostmem.Addr // partition descriptor table on B
	parts      hostmem.Addr // partition regions on B, krpcStreamBytes each
	completion hostmem.Addr // tuple count word on B
}

type kernelRPCBed struct {
	pair    *testrig.Pair
	in      *krpcInput
	o       roundOpts
	region  *kvstore.Region // B's buffer; everything on B is carved from it
	ht      *kvstore.HashTable
	objects hostmem.Addr
	clients [krpcClients]*krpcClient
	trav    *traversal.Kernel
	cons    *consistency.Kernel
	shuf    [krpcClients]*shuffle.Kernel
	ckA     *chaos.Checker
	ckB     *chaos.Checker
	tel     *testrig.Telemetry
	failed  []string
}

func newKernelRPCBed(in *krpcInput, seed int64, o roundOpts) (*kernelRPCBed, error) {
	pair, err := testrig.New(seed, core.Profile10G(), fabric.DirectCable10G(), krpcBufB)
	if err != nil {
		return nil, err
	}
	b := &kernelRPCBed{pair: pair, in: in, o: o}
	if err := pair.AddQueuePair(3, 4); err != nil {
		return nil, err
	}
	b.trav, b.cons = traversal.New(0), consistency.New(0)
	if err := pair.B.DeployKernel(traversalOp, b.trav); err != nil {
		return nil, err
	}
	if err := pair.B.DeployKernel(consistencyOp, b.cons); err != nil {
		return nil, err
	}

	// Machine B: hash table and values, then objects, then each client's
	// shuffle table, partition regions and completion word.
	region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
	b.region = region
	if b.ht, err = kvstore.BuildHashTable(region, krpcEntries); err != nil {
		return nil, err
	}
	for k, key := range in.keys {
		if err := b.ht.Put(key, krpcValue(key, krpcValueSizes[k%3])); err != nil {
			return nil, fmt.Errorf("populate key %d: %w", k, err)
		}
	}
	if b.objects, err = region.Alloc(len(in.objects)); err != nil {
		return nil, err
	}
	if err := pair.B.Memory().WriteVirt(b.objects, in.objects); err != nil {
		return nil, err
	}
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), in.tuples); err != nil {
		return nil, err
	}
	qps := [krpcClients]uint32{testrig.QPA, 3}
	for c := range b.clients {
		cl := &krpcClient{
			qp: qps[c], shufOp: shuffleOpBase + uint64(c),
			resp: pair.BufA.Base() + hostmem.Addr(krpcSourceBytes+c*krpcRespBytes),
		}
		if cl.table, err = region.Alloc(krpcPartitions * shuffle.DescriptorSize); err != nil {
			return nil, err
		}
		if cl.parts, err = region.Alloc(krpcPartitions * krpcStreamBytes); err != nil {
			return nil, err
		}
		if cl.completion, err = region.Alloc(8); err != nil {
			return nil, err
		}
		table := make([]byte, krpcPartitions*shuffle.DescriptorSize)
		for p := 0; p < krpcPartitions; p++ {
			binary.LittleEndian.PutUint64(table[p*shuffle.DescriptorSize:], uint64(cl.parts)+uint64(p*krpcStreamBytes))
		}
		if err := pair.B.Memory().WriteVirt(cl.table, table); err != nil {
			return nil, err
		}
		b.shuf[c] = shuffle.New()
		if err := pair.B.DeployKernel(cl.shufOp, b.shuf[c]); err != nil {
			return nil, err
		}
		b.clients[c] = cl
	}
	b.ckA, b.ckB, b.tel = attachToPair(pair, o)
	return b, nil
}

func (b *kernelRPCBed) drive(ops []op, rec *recording) {
	eng := b.pair.Eng
	for c, cl := range b.clients {
		eng.Go(fmt.Sprintf("client-%d", c), func(p *sim.Process) {
			for i := c; i < len(ops); i += krpcClients {
				start := p.Now()
				sp := rec.spans.begin(opKindNames[ops[i].kind], i, start)
				err := b.doOp(p, cl, i, ops[i], rec, sp)
				now := p.Now()
				rec.spans.end(sp, now)
				rec.completed(i, now.Sub(start), err)
			}
		})
	}
	b.pair.Run()
}

func (b *kernelRPCBed) doOp(p *sim.Process, cl *krpcClient, i int, o op, rec *recording, parent int32) error {
	a := b.pair.A
	switch o.kind {
	case opTraversal:
		key := b.in.keys[o.arg]
		val, err := traversal.Lookup(p, a, cl.qp, traversalOp, b.ht.TraversalParams(key, o.size, cl.resp))
		if err != nil {
			return err
		}
		if b.o.check {
			rec.bytes += uint64(o.size)
			if !bytes.Equal(val, krpcValue(key, o.size)) {
				b.failed = append(b.failed, fmt.Sprintf("op %d: traversal lookup of key %#x returned a value that was not inserted", i, key))
			}
		}
		return nil
	case opConsist:
		obj, err := consistency.Read(p, a, cl.qp, consistencyOp, consistency.Params{
			ObjectAddress:   uint64(b.objects) + o.arg*krpcObjectBytes,
			ObjectSize:      krpcObjectBytes,
			ResponseAddress: uint64(cl.resp),
		})
		if err != nil {
			return err
		}
		if b.o.check {
			rec.bytes += uint64(o.size)
			n := len(obj)
			if n != krpcObjectBytes || crc.Checksum64(obj[:n-8]) != binary.LittleEndian.Uint64(obj[n-8:]) {
				b.failed = append(b.failed, fmt.Sprintf("op %d: consistency read of object %d returned an invalid CRC", i, o.arg))
			}
		}
		return nil
	case opShuffle:
		// One shuffle is a session: parameters, the tuple stream, then the
		// receiving host polling the kernel's completion word, which it
		// cleared beforehand.
		mem := b.pair.B.Memory()
		if err := mem.WriteVirt(cl.completion, make([]byte, 8)); err != nil {
			return err
		}
		params := shuffle.Params{
			TableAddress:      uint64(cl.table),
			NumPartitions:     krpcPartitions,
			CompletionAddress: uint64(cl.completion),
		}
		sp := rec.spans.beginUnder("core.RPCSync", parent, i, p.Now())
		err := a.RPCSync(p, cl.qp, cl.shufOp, params.Encode())
		rec.spans.end(sp, p.Now())
		if err != nil {
			return err
		}
		sp = rec.spans.beginUnder("core.RPCWriteSync", parent, i, p.Now())
		err = a.RPCWriteSync(p, cl.qp, cl.shufOp, uint64(b.pair.BufA.Base())+o.arg, o.size)
		rec.spans.end(sp, p.Now())
		if err != nil {
			return err
		}
		sp = rec.spans.beginUnder("cpu.Poll", parent, i, p.Now())
		word, err := b.pair.B.Host().Poll(p, mem, cl.completion, 8, func(w []byte) bool {
			return binary.LittleEndian.Uint64(w) != 0
		}, 0)
		rec.spans.end(sp, p.Now())
		if err != nil {
			return err
		}
		if b.o.check {
			rec.bytes += uint64(o.size)
			b.checkShuffle(cl, i, o, binary.LittleEndian.Uint64(word))
		}
		return nil
	}
	return errors.New("kernel-rpc: op kind of another workload")
}

// checkShuffle compares the kernel's tuple count and every partition
// region with a reference partitioning of the streamed tuples.
func (b *kernelRPCBed) checkShuffle(cl *krpcClient, i int, o op, counted uint64) {
	const tuples = krpcStreamBytes / shuffle.TupleSize
	if counted != tuples {
		b.failed = append(b.failed, fmt.Sprintf("op %d: shuffle kernel counted %d tuples, streamed %d", i, counted, tuples))
		return
	}
	mem := b.pair.B.Memory()
	src := b.in.tuples[o.arg : o.arg+krpcStreamBytes]
	var want [krpcPartitions][]byte
	for t := 0; t < len(src); t += shuffle.TupleSize {
		v := binary.LittleEndian.Uint64(src[t:])
		pid := shuffle.Partition(v, krpcPartitions)
		want[pid] = append(want[pid], src[t:t+shuffle.TupleSize]...)
	}
	for pid, w := range want {
		got, err := mem.ReadVirt(cl.parts+hostmem.Addr(pid*krpcStreamBytes), len(w))
		if err != nil || !bytes.Equal(got, w) {
			b.failed = append(b.failed, fmt.Sprintf("op %d: partition %d holds %d tuples that differ from the shuffle.Partition reference", i, pid, len(w)/shuffle.TupleSize))
			return
		}
	}
}

func (b *kernelRPCBed) verify(ops []op, rec *recording) []string {
	bad := b.failed
	bad = append(bad, b.ckA.Finish()...)
	bad = append(bad, b.ckB.Finish()...)
	var lookups, reads, streams uint64
	for _, o := range ops {
		switch o.kind {
		case opTraversal:
			lookups++
		case opConsist:
			reads++
		case opShuffle:
			streams++
		}
	}
	if st := b.trav.Stats(); st.Found != lookups || st.Errors != 0 {
		bad = append(bad, fmt.Sprintf("traversal kernel found %d of %d lookups, %d errors", st.Found, lookups, st.Errors))
	}
	if st := b.cons.Stats(); st.Invocations != reads || st.Failures != 0 {
		bad = append(bad, fmt.Sprintf("consistency kernel served %d of %d reads, %d failures", st.Invocations, reads, st.Failures))
	}
	var tuples, errs uint64
	for _, k := range b.shuf {
		tuples += k.Stats().Tuples
		errs += k.Stats().Errors
	}
	if want := streams * krpcStreamBytes / shuffle.TupleSize; tuples != want || errs != 0 {
		bad = append(bad, fmt.Sprintf("shuffle kernels partitioned %d of %d tuples, %d errors", tuples, want, errs))
	}
	if rec.failed != 0 {
		bad = append(bad, fmt.Sprintf("%d ops returned an error", rec.failed))
	}
	return bad
}

func (b *kernelRPCBed) now() sim.Time { return b.pair.Eng.Now() }

func (b *kernelRPCBed) exports() (*telemetry.Registry, *telemetry.TraceBuffer) {
	return b.tel.Registry, b.tel.Trace
}

func (b *kernelRPCBed) counts() counts {
	c := pairCounts(b.pair, b.tel)
	ts := b.trav.Stats()
	c.n[cHops], c.n[cLookups] = ts.Hops, ts.Invocations
	c.n[cConsistRereads] = b.cons.Stats().Rereads
	return c
}
