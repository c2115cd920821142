package experiments

import (
	"fmt"
	"math/rand"

	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
	"strom/internal/workload"
)

// Ablations beyond the paper's figures: sweeps over the design parameters
// the paper calls out as the bottlenecks — the host doorbell rate
// (message rate, §7.1), the PCIe access latency (per-hop traversal cost,
// footnote 7's CXL/CAPI remark), the path MTU (throughput) and the
// Multi-Queue depth (outstanding reads).

// AblationDoorbell sweeps the host's doorbell issue interval and reports
// the 64 B write message rate: the paper's claim that the message rate is
// bound by the host issuing AVX2 stores, not by packet processing.
func AblationDoorbell(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Ablation: doorbell interval vs message rate (10G, 64B writes)",
		"doorbell interval", "message rate Mio msg/s")
	s := fig.NewSeries("StRoM: Write")
	for _, ns := range []int{25, 70, 140, 280} {
		prof := profile10G()
		prof.cfg.Host.DoorbellInterval = sim.Duration(ns) * sim.Nanosecond
		pair, err := newPair(o, prof, 8<<20)
		if err != nil {
			return nil, err
		}
		const msgs = 20000
		done, err := runWriteTrain(pair, msgs, 64)
		if err != nil {
			return nil, fmt.Errorf("doorbell interval %dns: %w", ns, err)
		}
		s.Add(float64(ns), fmt.Sprintf("%dns", ns), mrate(msgs, done))
	}
	return fig, nil
}

// AblationPCIeLatency sweeps the PCIe access latency and reports the
// per-hop cost of the traversal kernel — what CXL/CAPI-class
// interconnects would buy (footnote 7).
func AblationPCIeLatency(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Ablation: PCIe access latency vs traversal per-hop cost",
		"PCIe read latency", "per-hop us")
	s := fig.NewSeries("StRoM traversal")
	for _, ns := range []int{1300, 650, 250, 80} {
		perHop, err := traversalPerHop(o, sim.Duration(ns)*sim.Nanosecond)
		if err != nil {
			return nil, err
		}
		s.Add(float64(ns), fmt.Sprintf("%dns", ns), perHop)
	}
	return fig, nil
}

func traversalPerHop(o Options, readLatency sim.Duration) (float64, error) {
	lat := func(listLen int) (sim.Duration, error) {
		prof := profile10G()
		prof.cfg.PCIe.ReadLatency = readLatency
		pair, err := newPair(o, prof, 16<<20)
		if err != nil {
			return 0, err
		}
		kern := traversal.New(0)
		if err := pair.B.DeployKernel(traversalOp, kern); err != nil {
			return 0, err
		}
		region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
		keys := make([]uint64, listLen)
		values := make([][]byte, listLen)
		for i := range keys {
			keys[i] = uint64(i + 1)
			values[i] = make([]byte, 64)
		}
		list, err := kvstore.BuildList(region, keys, values)
		if err != nil {
			return 0, err
		}
		var d sim.Duration
		var runErr error
		pair.Eng.Go("client", func(p *sim.Process) {
			start := p.Now()
			if _, err := traversal.Lookup(p, pair.A, testrig.QPA, traversalOp, list.TraversalParams(uint64(listLen), pair.BufA.Base())); err != nil {
				runErr = err
				return
			}
			d = p.Now().Sub(start)
		})
		pair.Run()
		return d, runErr
	}
	l4, err := lat(4)
	if err != nil {
		return 0, err
	}
	l20, err := lat(20)
	if err != nil {
		return 0, err
	}
	return (l20 - l4).Microseconds() / 16, nil
}

// AblationMTU sweeps the path MTU payload and reports large-transfer
// write goodput: header overhead is what separates 10 Gbit/s line rate
// from the ~9.4 Gbit/s ideal goodput of Fig. 5b.
func AblationMTU(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Ablation: MTU payload vs write goodput (10G, 1MB messages)",
		"MTU payload", "throughput Gbit/s")
	s := fig.NewSeries("StRoM: Write")
	for _, mtu := range []int{256, 512, 1024, 1408} {
		prof := profile10G()
		prof.cfg.Roce.MTUPayload = mtu
		g, err := writeThroughput(o, prof, 1<<20)
		if err != nil {
			return nil, err
		}
		s.Add(float64(mtu), fmt.Sprintf("%dB", mtu), g)
	}
	return fig, nil
}

// AblationReadDepth sweeps the Multi-Queue's per-QP depth and reports
// 64 KB read throughput: outstanding reads hide the request round trip.
func AblationReadDepth(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Ablation: Multi-Queue depth vs read throughput (10G, 64KB reads)",
		"outstanding reads", "throughput Gbit/s")
	s := fig.NewSeries("StRoM: Read")
	for _, depth := range []int{1, 2, 4, 16} {
		prof := profile10G()
		prof.cfg.Roce.ReadDepthPerQP = depth
		g, err := readThroughput(o, prof, 64<<10)
		if err != nil {
			return nil, err
		}
		s.Add(float64(depth), fmt.Sprintf("%d", depth), g)
	}
	return fig, nil
}

// AblationLoss sweeps packet-loss probability and reports effective write
// goodput: what Priority Flow Control buys on real Converged Ethernet —
// the paper's stack assumes a lossless fabric (§4.1); the go-back-N
// retransmission path pays for every lost frame.
func AblationLoss(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Ablation: packet loss vs write goodput (10G, 64KB messages)",
		"loss probability", "throughput Gbit/s")
	s := fig.NewSeries("StRoM: Write")
	for _, loss := range []float64{0, 0.0001, 0.001, 0.01} {
		prof := profile10G()
		pair, err := newPair(o, prof, 8<<20)
		if err != nil {
			return nil, err
		}
		pair.Link.SetFaultsAtoB(fabric.Coin{Rand: pair.Eng.Rand(), DropProb: loss})
		const size = 64 << 10
		msgs := streamMsgs(o, size, maxWriteMsgs)
		done, err := runWriteTrain(pair, msgs, size)
		if err != nil {
			return nil, fmt.Errorf("loss p=%g: %w", loss, err)
		}
		s.Add(loss, fmt.Sprintf("%g", loss), gbps(msgs*size, done))
	}
	return fig, nil
}

// Ablations lists the ablation generators.
func Ablations() []Generator {
	return []Generator{
		{"abl-doorbell", AblationDoorbell},
		{"abl-pcie", AblationPCIeLatency},
		{"abl-mtu", AblationMTU},
		{"abl-readdepth", AblationReadDepth},
		{"abl-loss", AblationLoss},
		{"abl-getops", AblationGetOps},
	}
}

// AblationGetOps drives closed-loop KV GET clients with a YCSB-style
// zipfian key distribution (theta 0.99, as in the Pilaf/FaRM
// evaluations) and compares aggregate throughput: two one-sided READs
// per GET versus one traversal-kernel RPC. Each client runs on its own
// queue pair.
func AblationGetOps(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Ablation: KV GET throughput, zipfian keys (theta 0.99, 10G)",
		"#clients", "Mops/s")
	sRead := fig.NewSeries("RDMA READ x2")
	sStrom := fig.NewSeries("StRoM traversal")
	for _, clients := range []int{1, 2, 4, 8} {
		r, s, err := getOpsThroughput(o, clients)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", clients)
		sRead.Add(float64(clients), label, r)
		sStrom.Add(float64(clients), label, s)
	}
	return fig, nil
}

func getOpsThroughput(o Options, clients int) (readMops, stromMops float64, err error) {
	const valueSize = 256
	opsPerClient := o.Iterations * 20
	run := func(useKernel bool) (float64, error) {
		pair, err := newPair(o, profile10G(), 32<<20)
		if err != nil {
			return 0, err
		}
		kern := traversal.New(0)
		if err := pair.B.DeployKernel(traversalOp, kern); err != nil {
			return 0, err
		}
		// Extra QPs for clients beyond the first.
		for c := 1; c < clients; c++ {
			qa := uint32(10 + 2*c)
			qb := qa + 1
			if err := pair.A.CreateQP(qa, pair.B.Identity(), qb); err != nil {
				return 0, err
			}
			if err := pair.B.CreateQP(qb, pair.A.Identity(), qa); err != nil {
				return 0, err
			}
		}
		region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
		ht, err := kvstore.BuildHashTable(region, 8192)
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(o.Seed))
		keys := make([]uint64, 0, 1024)
		for len(keys) < 1024 {
			k := rng.Uint64()
			v := make([]byte, valueSize)
			rng.Read(v)
			if err := ht.Put(k, v); err != nil {
				continue
			}
			keys = append(keys, k)
		}
		var done sim.Time
		finished := 0
		for c := 0; c < clients; c++ {
			c := c
			qpn := testrig.QPA
			if c > 0 {
				qpn = uint32(10 + 2*c)
			}
			gen, err := workload.NewZipfian(len(keys), 0.99, o.Seed+int64(c), true)
			if err != nil {
				return 0, err
			}
			respVA := pair.BufA.Base() + hostmem.Addr(c*(1<<20))
			scratch := respVA + 65536
			pair.Eng.Go(fmt.Sprintf("client%d", c), func(p *sim.Process) {
				for i := 0; i < opsPerClient; i++ {
					key := keys[gen.Next()]
					if useKernel {
						if _, err := traversal.Lookup(p, pair.A, qpn, traversalOp, ht.TraversalParams(key, valueSize, respVA)); err != nil {
							return
						}
					} else {
						if err := pair.A.ReadSync(p, qpn, uint64(ht.EntryAddr(key)), uint64(scratch), kvstore.HTEntrySize); err != nil {
							return
						}
						entry, err := pair.A.Memory().ReadVirt(scratch, kvstore.HTEntrySize)
						if err != nil {
							return
						}
						p.Sleep(pair.A.Host().MemLatency)
						valueVA, ok := htEntryLookup(entry, key)
						if !ok {
							return
						}
						if err := pair.A.ReadSync(p, qpn, valueVA, uint64(scratch), valueSize); err != nil {
							return
						}
					}
				}
				finished++
				if finished == clients {
					done = pair.Eng.Now()
				}
			})
		}
		pair.Run()
		if finished != clients {
			return 0, fmt.Errorf("get-ops clients stalled (%d/%d)", finished, clients)
		}
		return float64(clients*opsPerClient) / sim.Duration(done).Seconds() / 1e6, nil
	}
	if readMops, err = run(false); err != nil {
		return 0, 0, err
	}
	if stromMops, err = run(true); err != nil {
		return 0, 0, err
	}
	return readMops, stromMops, nil
}
