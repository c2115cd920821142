package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"strom/internal/core"
	"strom/internal/crc"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/kernels/shuffle"
	"strom/internal/kvserve"
	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// layerReps is how often each isolated layer call is timed; the fastest
// repetition is reported, for the reason the best decile is: noise only
// ever adds time.
const layerReps = 3

// layerTimer times isolated layer calls. scale shrinks every iteration
// count; the tests use it to stay cheap.
type layerTimer struct {
	spans *spanLog
	scale float64
}

// measure times fn(n), which performs n operations on one layer through
// its public functions, and returns the host nanoseconds per operation.
// Every repetition is a span.
func (t layerTimer) measure(name string, n int, fn func(n int)) float64 {
	l := t.spans
	n = max(1, int(float64(n)*t.scale))
	best := math.Inf(1)
	for r := 0; r < layerReps; r++ {
		id := l.beginUnder(name, -1, r, 0)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		l.end(id, 0)
		best = math.Min(best, float64(d.Nanoseconds())/float64(n))
	}
	return best
}

// sink is a fabric endpoint that recycles what it receives.
var sink = fabric.EndpointFunc(func(frame []byte) { packet.PutBuf(frame) })

// sampleFrame is an encoded 64 B RDMA WRITE addressed to dst.
func sampleFrame(dst packet.MAC) (*packet.Packet, []byte) {
	var p packet.Packet
	payload := make([]byte, 64)
	packet.FillSegment(&p, packet.KindWrite, 2, 100, packet.RETH{VirtualAddress: 1 << 21, DMALength: 64}, payload, packet.PathMTUPayload, 0, 1)
	p.DstMAC, p.SrcMAC = dst, packet.MAC{2, 0, 0, 0, 0, 1}
	p.SrcIP, p.DstIP = packet.AddrOf(10, 0, 0, 1), packet.AddrOf(10, 0, 0, 2)
	return &p, p.Encode()
}

// memHandler is the in-memory responder the isolated RoCE timing runs
// against: WRITE payloads are dropped, READs answered with zeros.
type memHandler struct{}

func (memHandler) HandleWrite(uint32, uint64, []byte, bool) {}
func (memHandler) HandleReadRequest(_ uint32, _ uint64, n int, deliver func([]byte, error)) {
	deliver(make([]byte, n), nil)
}
func (memHandler) HandleRPCParams(uint32, uint64, []byte) error      { return nil }
func (memHandler) HandleRPCWrite(uint32, uint64, []byte, bool) error { return nil }

// stackPair wires two RoCE stacks back to back over a fixed 150 ns hop,
// with no NIC, DMA or link model in between.
func stackPair() (*sim.Engine, *roce.Stack, error) {
	eng := sim.NewEngine(1)
	idA := roce.Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := roce.Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	var a, b *roce.Stack
	hop := 150 * sim.Nanosecond
	a = roce.NewStack(eng, roce.Config10G(), idA, memHandler{}, func(f []byte) {
		eng.Schedule(hop, func() { b.DeliverFrame(f) })
	})
	b = roce.NewStack(eng, roce.Config10G(), idB, memHandler{}, func(f []byte) {
		eng.Schedule(hop, func() { a.DeliverFrame(f) })
	})
	if err := a.CreateQP(1, idB, 2); err != nil {
		return nil, nil, err
	}
	if err := b.CreateQP(2, idA, 1); err != nil {
		return nil, nil, err
	}
	return eng, a, nil
}

// postLoop keeps window WRITEs of size bytes in flight until n completed.
func postLoop(eng *sim.Engine, a *roce.Stack, n, window, size int) error {
	data := make([]byte, size)
	posted := 0
	var firstErr error
	var done func(error)
	post := func() {
		posted++
		if err := a.PostWrite(1, 1<<21, data, done); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	done = func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if posted < n {
			post()
		}
	}
	eng.Schedule(0, func() {
		for k := 0; k < window && posted < n; k++ {
			post()
		}
	})
	eng.Run()
	return firstErr
}

// isolatedLayers times each layer's public functions on their own and
// returns the host-time per-layer metrics no workload is needed for.
func isolatedLayers(t layerTimer) (map[string]float64, error) {
	m := make(map[string]float64)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// sim: an event scheduled and fired; a process parked and woken; a
	// barrier window of a two-shard group run by one worker.
	m["sim.schedule_fire_ns"] = t.measure("sim.Schedule", 400_000, func(n int) {
		eng := sim.NewEngine(1)
		left := n
		var tick func()
		tick = func() {
			if left > 0 {
				left--
				eng.Schedule(64*sim.Nanosecond, tick)
			}
		}
		for k := 0; k < 64; k++ {
			eng.Schedule(sim.Duration(k)*sim.Nanosecond, tick)
		}
		eng.Run()
	})
	m["sim.process_switch_ns"] = t.measure("sim.Process.Sleep", 50_000, func(n int) {
		eng := sim.NewEngine(1)
		eng.Go("sleeper", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
		eng.Run()
	})
	m["sim.shard_window_ns"] = t.measure("sim.ShardGroup.Run", 100_000, func(n int) {
		const lookahead = 100 * sim.Nanosecond
		g := sim.NewShardGroup(1, 2, lookahead)
		g.SetWorkers(1)
		for s := 0; s < 2; s++ {
			eng := g.Shard(s)
			left := n
			var tick func()
			tick = func() {
				if left > 0 {
					left--
					eng.Schedule(lookahead, tick)
				}
			}
			eng.Schedule(0, tick)
		}
		g.Run()
	})

	// packet and crc: one 64 B WRITE frame encoded and decoded; the two
	// checksums over 4 KiB.
	pkt, frame := sampleFrame(packet.MAC{2, 0, 0, 0, 0, 2})
	m["packet.encode_ns"] = t.measure("packet.EncodeTo", 200_000, func(n int) {
		buf := make([]byte, 0, 256)
		for i := 0; i < n; i++ {
			buf = pkt.EncodeTo(buf)
		}
	})
	m["packet.decode_ns"] = t.measure("packet.DecodeInto", 200_000, func(n int) {
		var q packet.Packet
		for i := 0; i < n; i++ {
			note(packet.DecodeInto(&q, frame))
		}
	})
	block := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(block)
	var sum uint64
	m["crc.icrc_ns_per_kb"] = t.measure("crc.Checksum32", 5_000, func(n int) {
		for i := 0; i < n; i++ {
			sum += uint64(crc.Checksum32(block))
		}
	}) / 4
	m["crc.crc64_ns_per_kb"] = t.measure("crc.Checksum64", 5_000, func(n int) {
		for i := 0; i < n; i++ {
			sum += crc.Checksum64(block)
		}
	}) / 4
	spinSink += sum

	// fabric: a frame across a cable, and through the shared-buffer
	// switch in bursts small enough never to pause a port.
	m["fabric.link_frame_ns"] = t.measure("fabric.Link.Send", 100_000, func(n int) {
		eng := sim.NewEngine(1)
		link := fabric.NewLink(eng, fabric.DirectCable10G(), sink, sink)
		for sent := 0; sent < n; sent += 64 {
			for k := 0; k < 64; k++ {
				link.SendFromA(packet.CloneFrame(frame))
			}
			eng.Run()
		}
	})
	m["fabric.switch_frame_ns"] = t.measure("fabric.Switch.forward", 100_000, func(n int) {
		eng := sim.NewEngine(1)
		sw := fabric.NewSwitchCfg(eng, kvSwitchConfig())
		in := sw.AttachPortOn(eng, packet.MAC{2, 0, 0, 0, 0, 1}, sink)
		sw.AttachPortOn(eng, packet.MAC{2, 0, 0, 0, 0, 2}, sink)
		for sent := 0; sent < n; sent += 64 {
			for k := 0; k < 64; k++ {
				in.Send(packet.CloneFrame(frame))
			}
			eng.Run()
		}
		if d := sw.PortStats(0).Discards; d != 0 {
			note(fmt.Errorf("isolated switch timing discarded %d frames", d))
		}
	})

	// roce: post to completion against the in-memory handler.
	m["roce.post_complete_ns"] = t.measure("roce.PostWrite/64B", 50_000, func(n int) {
		eng, a, err := stackPair()
		note(err)
		if err == nil {
			note(postLoop(eng, a, n, 16, 64))
		}
	})
	m["roce.bulk_ns_per_kb"] = t.measure("roce.PostWrite/64KiB", 500, func(n int) {
		eng, a, err := stackPair()
		note(err)
		if err == nil {
			note(postLoop(eng, a, n, 4, 64<<10))
		}
	}) / 64

	// pcie, hostmem, mr: one machine, no network.
	eng := sim.NewEngine(1)
	nic := core.NewNIC(eng, core.Profile10G(), roce.Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)})
	buf, err := nic.AllocBuffer(hostmem.HugePageSize)
	if err != nil {
		return nil, err
	}
	base := buf.Base()
	m["pcie.dma_cmd_ns"] = t.measure("pcie.ReadHost/64B", 100_000, func(n int) {
		got := func(_ []byte, err error) { note(err) }
		for sent := 0; sent < n; sent += 16 {
			for k := 0; k < 16; k++ {
				nic.DMA().ReadHost(base+hostmem.Addr(64*k), 64, got)
			}
			eng.Run()
		}
	})
	m["hostmem.copy_ns_per_kb"] = t.measure("hostmem.WriteVirt+ReadVirt/4KiB", 20_000, func(n int) {
		mem := nic.Memory()
		for i := 0; i < n; i++ {
			note(mem.WriteVirt(base, block))
			_, err := mem.ReadVirt(base, len(block))
			note(err)
		}
	}) / 8
	region := nic.RegionFor(uint64(base))
	m["mr.check_ns"] = t.measure("mr.CheckRemote", 500_000, func(n int) {
		tbl := nic.MRTable()
		for i := 0; i < n; i++ {
			if f := tbl.CheckRemote(region.RKey(), uint64(base)+64, 64, mr.AccessRemoteWrite); f != nil {
				note(f)
			}
		}
	})

	// telemetry: the two hot instruments, and one scrape tick of a
	// recorder watching what a KV cluster registers.
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench_counter")
	m["telemetry.counter_inc_ns"] = t.measure("telemetry.Counter.Inc", 2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	hist := reg.Histogram("bench_hist", "ps")
	m["telemetry.hist_observe_ns"] = t.measure("telemetry.Histogram.Observe", 2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			hist.ObserveInt(int64(i)*997 + 1)
		}
	})
	m["telemetry.recorder_scrape_ns"] = t.measure("export.Recorder.tick", 2_000, func(n int) {
		eng := sim.NewEngine(1)
		rec := export.NewRecorder(append(export.DefaultRules(), kvserve.HeartbeatRule()))
		var beats uint64
		for s := 0; s < 3; s++ {
			rec.Source(eng, fmt.Sprintf("m%d", s+1), "kv", fmt.Sprintf("kvsrv:%d", s), func() (map[string]uint64, map[string]float64) {
				beats++
				return map[string]uint64{"kv_heartbeats": beats}, map[string]float64{"kv_serving": 1}
			})
		}
		rec.Source(eng, "m0", "kvclient", "kvcli", func() (map[string]uint64, map[string]float64) {
			return map[string]uint64{"kv_torn_detected": 0, "kv_spilled_reads": beats}, nil
		})
		rec.Start(kvScrapeEvery)
		eng.ScheduleAt(sim.Time(n)*sim.Time(kvScrapeEvery), func() {})
		eng.Run()
	})
	return m, firstErr
}

// kernelLayers measures the three kernels on a kernel-rpc testbed by
// posting to the serving NIC locally: the simulated time from the local
// post to the response visible at the requester (the RPC minus its
// request leg), and the host time per invocation. It also times the
// kvstore structures the testbed holds.
func kernelLayers(t layerTimer) (map[string]float64, error) {
	l := t.spans
	_, images := generateKernelRPC(rand.New(rand.NewSource(1)), 0)
	bed, err := newKernelRPCBed(images.(*krpcInput), 1, roundOpts{})
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	pair, cl := bed.pair, bed.clients[0]
	a, b := pair.A, pair.B

	// local returns the mean simulated µs of n local invocations, each
	// polled for at the requester like the client helpers do.
	local := func(name string, n, size int, params func(i int) []byte, op uint64) float64 {
		var total sim.Duration
		status := cl.resp + hostmem.Addr(size)
		pair.Eng.Go(name, func(p *sim.Process) {
			for i := 0; i < n; i++ {
				note(a.Memory().WriteVirt(status, make([]byte, 8)))
				t0 := p.Now()
				sp := l.beginUnder(name, -1, i, t0)
				b.InvokeLocal(op, testrig.QPB, params(i), nil)
				_, err := a.Host().Poll(p, a.Memory(), status, 8, func(w []byte) bool {
					return binary.LittleEndian.Uint64(w) != 0
				}, 0)
				note(err)
				l.end(sp, p.Now())
				total += p.Now().Sub(t0)
			}
		})
		pair.Run()
		return (total / sim.Duration(n)).Microseconds()
	}
	travParams := func(i int) []byte {
		k := 3 * i // index mod 3 == 0: a 64 B value
		return bed.ht.TraversalParams(bed.in.keys[k], krpcValueSizes[0], cl.resp).Encode()
	}
	consParams := func(i int) []byte {
		return consistency.Params{
			ObjectAddress:   uint64(bed.objects) + uint64(i%krpcObjects)*krpcObjectBytes,
			ObjectSize:      krpcObjectBytes,
			ResponseAddress: uint64(cl.resp),
		}.Encode()
	}
	m["kernels.traversal_local_us"] = local("core.InvokeLocal/traversal", 64, krpcValueSizes[0], travParams, traversalOp)
	m["kernels.consistency_local_us"] = local("core.InvokeLocal/consistency", 64, krpcObjectBytes, consParams, consistencyOp)

	m["kernels.traversal_host_ns"] = t.measure("traversal.InvokeLocal", 5_000, func(n int) {
		for i := 0; i < n; i++ {
			b.InvokeLocal(traversalOp, testrig.QPB, travParams(i%1000), nil)
			pair.Run()
		}
	})
	m["kernels.consistency_host_ns_per_kb"] = t.measure("consistency.InvokeLocal", 2_000, func(n int) {
		for i := 0; i < n; i++ {
			b.InvokeLocal(consistencyOp, testrig.QPB, consParams(i), nil)
			pair.Run()
		}
	}) / (krpcObjectBytes / 1024)
	// The shuffle kernel as a send-side kernel: tuples from B's own
	// memory streamed through it into B's partition regions.
	src, err := bed.region.Alloc(krpcStreamBytes)
	if err != nil {
		return nil, err
	}
	note(b.Memory().WriteVirt(src, bed.in.tuples[:krpcStreamBytes]))
	shufParams := shuffle.Params{
		TableAddress: uint64(cl.table), NumPartitions: krpcPartitions, CompletionAddress: uint64(cl.completion),
	}.Encode()
	m["kernels.shuffle_host_ns_per_kb"] = t.measure("shuffle.StreamLocal", 300, func(n int) {
		for i := 0; i < n; i++ {
			b.InvokeLocal(cl.shufOp, testrig.QPB, shufParams, nil)
			b.StreamLocal(cl.shufOp, testrig.QPB, uint64(src), krpcStreamBytes, func(err error) { note(err) })
			pair.Run()
		}
	}) / (krpcStreamBytes / 1024)
	if st := bed.shuf[0].Stats(); st.Errors != 0 || st.Tuples == 0 {
		note(fmt.Errorf("isolated shuffle timing: %+v", st))
	}

	keys := bed.in.keys
	m["kvstore.hash_get_ns"] = t.measure("kvstore.HashTable.Get", 100_000, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := bed.ht.Get(keys[i%len(keys)]); !ok {
				note(fmt.Errorf("kvstore: inserted key %#x not found", keys[i%len(keys)]))
			}
		}
	})
	arena := bed.ht.Arena()
	m["kvstore.arena_alloc_ns"] = t.measure("kvstore.Arena.Alloc+Free", 500_000, func(n int) {
		for i := 0; i < n; i++ {
			va, err := arena.Alloc(64)
			note(err)
			arena.Free(va, 64)
		}
	})
	return m, firstErr
}
