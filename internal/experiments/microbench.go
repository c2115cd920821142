package experiments

import (
	"fmt"

	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// latencyPayloads are Fig. 5a/12a's x axis.
var latencyPayloads = []int{64, 128, 256, 512, 1024}

// throughputPayloads are Fig. 5b/12b's x axis: 2^6 .. 2^20.
var throughputPayloads = []int{
	1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
}

// messageRatePayloads are Fig. 5c/12c's x axis.
var messageRatePayloads = []int{64, 256, 1024, 4096}

// Fig5aLatency10G reproduces Fig. 5a: median RDMA write/read latency with
// 1st/99th-percentile whiskers, for 64 B – 1 KB payloads at 10 G.
func Fig5aLatency10G(o Options) (*stats.Figure, error) {
	return latencyFigure(o, profile10G(), "Fig 5a: StRoM RoCE NIC latency (10G)")
}

// Fig12aLatency100G reproduces Fig. 12a (the 100 G version).
func Fig12aLatency100G(o Options) (*stats.Figure, error) {
	return latencyFigure(o, profile100G(), "Fig 12a: StRoM RoCE NIC latency (100G)")
}

func latencyFigure(o Options, prof profile, title string) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure(title, "payload", "latency us (median [p1,p99])")
	wr := fig.NewSeries("StRoM: Write")
	rd := fig.NewSeries("StRoM: Read")
	for _, size := range latencyPayloads {
		wl, err := writePingPongLatency(o, prof, size)
		if err != nil {
			return nil, err
		}
		s := wl.Summarize()
		wr.AddBands(float64(size), sizeLabel(size), s.Median, s.P1, s.P99)
		rl, err := readLatency(o, prof, size)
		if err != nil {
			return nil, err
		}
		s = rl.Summarize()
		rd.AddBands(float64(size), sizeLabel(size), s.Median, s.P1, s.P99)
	}
	return fig, nil
}

// writePingPongLatency runs the §6.1 ping-pong: the reported value is
// RTT/2 in microseconds.
func writePingPongLatency(o Options, prof profile, size int) (*stats.Sample, error) {
	pair, err := newPair(o, prof, 8<<20)
	if err != nil {
		return nil, err
	}
	var lat stats.Sample
	hostA, hostB := pair.A.Host(), pair.B.Host()
	// Responder: poll on the ping flag, clear it, write the pong back.
	// It runs on machine B's engine — its own shard when sharded.
	pair.EngB.Go("responder", func(p *sim.Process) {
		pong := make([]byte, size)
		for i := range pong {
			pong[i] = 0xFF
		}
		if err := pair.B.Memory().WriteVirt(pair.BufB.Base()+1<<20, pong); err != nil {
			return
		}
		for i := 0; i < o.Iterations; i++ {
			if err := hostB.PollNonZero(p, pair.B.Memory(), pair.BufB.Base(), 0); err != nil {
				return
			}
			if err := pair.B.Memory().WriteVirt(pair.BufB.Base(), make([]byte, 1)); err != nil {
				return
			}
			if err := pair.B.WriteSync(p, testrig.QPB, uint64(pair.BufB.Base())+1<<20, uint64(pair.BufA.Base()), size); err != nil {
				return
			}
		}
	})
	pair.Eng.Go("initiator", func(p *sim.Process) {
		ping := make([]byte, size)
		for i := range ping {
			ping[i] = 0xFF
		}
		if err := pair.A.Memory().WriteVirt(pair.BufA.Base()+1<<20, ping); err != nil {
			return
		}
		pongVA := pair.BufA.Base()
		for i := 0; i < o.Iterations; i++ {
			if err := pair.A.Memory().WriteVirt(pongVA, make([]byte, 1)); err != nil {
				return
			}
			start := p.Now()
			if err := pair.A.WriteSync(p, testrig.QPA, uint64(pair.BufA.Base())+1<<20, uint64(pair.BufB.Base()), size); err != nil {
				return
			}
			if err := hostA.PollNonZero(p, pair.A.Memory(), pongVA, 0); err != nil {
				return
			}
			rtt := p.Now().Sub(start)
			lat.Add(rtt.Microseconds() / 2)
		}
	})
	pair.Run()
	if lat.N() != o.Iterations {
		return nil, fmt.Errorf("ping-pong incomplete: %d/%d", lat.N(), o.Iterations)
	}
	return &lat, nil
}

// readLatency measures posting an RDMA READ until its data is visible in
// local memory.
func readLatency(o Options, prof profile, size int) (*stats.Sample, error) {
	pair, err := newPair(o, prof, 8<<20)
	if err != nil {
		return nil, err
	}
	var lat stats.Sample
	pair.Eng.Go("reader", func(p *sim.Process) {
		for i := 0; i < o.Iterations; i++ {
			start := p.Now()
			if err := pair.A.ReadSync(p, testrig.QPA, uint64(pair.BufB.Base()), uint64(pair.BufA.Base()), size); err != nil {
				return
			}
			lat.Add(p.Now().Sub(start).Microseconds())
		}
	})
	pair.Run()
	if lat.N() != o.Iterations {
		return nil, fmt.Errorf("read latency incomplete: %d/%d", lat.N(), o.Iterations)
	}
	return &lat, nil
}

// Fig5bThroughput10G reproduces Fig. 5b: write/read goodput vs payload.
func Fig5bThroughput10G(o Options) (*stats.Figure, error) {
	return throughputFigure(o, profile10G(), "Fig 5b: StRoM RoCE NIC throughput (10G)")
}

// Fig12bThroughput100G reproduces Fig. 12b.
func Fig12bThroughput100G(o Options) (*stats.Figure, error) {
	return throughputFigure(o, profile100G(), "Fig 12b: StRoM RoCE NIC throughput (100G)")
}

func throughputFigure(o Options, prof profile, title string) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure(title, "payload", "throughput Gbit/s")
	wr := fig.NewSeries("StRoM: Write")
	rd := fig.NewSeries("StRoM: Read")
	for _, size := range throughputPayloads {
		g, err := writeThroughput(o, prof, size)
		if err != nil {
			return nil, err
		}
		wr.Add(float64(size), sizeLabel(size), g)
		g, err = readThroughput(o, prof, size)
		if err != nil {
			return nil, err
		}
		rd.Add(float64(size), sizeLabel(size), g)
	}
	return fig, nil
}

// maxWriteMsgs and maxReadMsgs bound the event count of the smallest
// payloads' throughput points.
const (
	maxWriteMsgs = 250_000
	maxReadMsgs  = 120_000
)

// streamMsgs is how many size-byte messages a throughput point moves:
// StreamBytes' worth, at least 8 and at most limit.
func streamMsgs(o Options, size, limit int) int {
	return min(max(o.StreamBytes/size, 8), limit)
}

// ringAddr is message i's offset in a 4 MiB window of size-byte slots.
func ringAddr(i, size int) uint64 { return uint64(i * size % (4 << 20)) }

// runWriteTrain posts msgs WRITEs of size bytes from A to B back to back
// at t=0, runs the testbed dry and returns when the last one completed.
// The first failed WRITE is the error; a train that neither failed nor
// finished stalled.
func runWriteTrain(pair *testrig.Pair, msgs, size int) (done sim.Time, err error) {
	remaining := msgs
	pair.Eng.Schedule(0, func() {
		for i := 0; i < msgs; i++ {
			src := uint64(pair.BufA.Base()) + ringAddr(i, size)
			dst := uint64(pair.BufB.Base()) + ringAddr(i, size)
			pair.A.PostWrite(testrig.QPA, src, dst, size, func(opErr error) {
				if opErr != nil && err == nil {
					err = opErr
				}
				remaining--
				if remaining == 0 {
					done = pair.Eng.Now()
				}
			})
		}
	})
	pair.Run()
	if err == nil && remaining != 0 {
		err = fmt.Errorf("write train stalled with %d of %d outstanding", remaining, msgs)
	}
	return done, err
}

// runReadWindow keeps depth READs of size bytes outstanding from A
// against B, re-posting on every completion until msgs have been issued,
// and returns when the last one completed; errors as in runWriteTrain.
func runReadWindow(pair *testrig.Pair, msgs, size, depth int) (done sim.Time, err error) {
	issued, completed := 0, 0
	var post func()
	post = func() {
		for issued < msgs && issued-completed < depth {
			src := uint64(pair.BufB.Base()) + ringAddr(issued, size)
			dst := uint64(pair.BufA.Base()) + ringAddr(issued, size)
			issued++
			pair.A.PostRead(testrig.QPA, src, dst, size, func(opErr error) {
				if opErr != nil && err == nil {
					err = opErr
				}
				completed++
				if completed == msgs {
					done = pair.Eng.Now()
					return
				}
				post()
			})
		}
	}
	pair.Eng.Schedule(0, post)
	pair.Run()
	if err == nil && completed != msgs {
		err = fmt.Errorf("read window stalled at %d/%d", completed, msgs)
	}
	return done, err
}

func writeThroughput(o Options, prof profile, size int) (float64, error) {
	pair, err := newPair(o, prof, 8<<20)
	if err != nil {
		return 0, err
	}
	msgs := streamMsgs(o, size, maxWriteMsgs)
	done, err := runWriteTrain(pair, msgs, size)
	if err != nil {
		return 0, err
	}
	return gbps(msgs*size, done), nil
}

func readThroughput(o Options, prof profile, size int) (float64, error) {
	pair, err := newPair(o, prof, 8<<20)
	if err != nil {
		return 0, err
	}
	msgs := streamMsgs(o, size, maxReadMsgs)
	done, err := runReadWindow(pair, msgs, size, prof.cfg.Roce.ReadDepthPerQP)
	if err != nil {
		return 0, err
	}
	return gbps(msgs*size, done), nil
}

// Fig5cMessageRate10G reproduces Fig. 5c: messages per second vs payload.
func Fig5cMessageRate10G(o Options) (*stats.Figure, error) {
	return messageRateFigure(o, profile10G(), "Fig 5c: StRoM RoCE NIC message rate (10G)")
}

// Fig12cMessageRate100G reproduces Fig. 12c.
func Fig12cMessageRate100G(o Options) (*stats.Figure, error) {
	return messageRateFigure(o, profile100G(), "Fig 12c: StRoM RoCE NIC message rate (100G)")
}

func messageRateFigure(o Options, prof profile, title string) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure(title, "payload", "message rate Mio msg/s")
	wr := fig.NewSeries("StRoM: Write")
	rd := fig.NewSeries("StRoM: Read")
	for _, size := range messageRatePayloads {
		msgs := 60_000
		if size >= 1024 {
			msgs = 20_000
		}
		pair, err := newPair(o, prof, 8<<20)
		if err != nil {
			return nil, err
		}
		done, err := runWriteTrain(pair, msgs, size)
		if err != nil {
			return nil, fmt.Errorf("message-rate writes: %w", err)
		}
		wr.Add(float64(size), sizeLabel(size), mrate(msgs, done))

		// Reads: windowed by the Multi-Queue depth.
		pair, err = newPair(o, prof, 8<<20)
		if err != nil {
			return nil, err
		}
		rmsgs := msgs / 2
		done, err = runReadWindow(pair, rmsgs, size, prof.cfg.Roce.ReadDepthPerQP)
		if err != nil {
			return nil, fmt.Errorf("message-rate reads: %w", err)
		}
		rd.Add(float64(size), sizeLabel(size), mrate(rmsgs, done))
	}
	return fig, nil
}

func gbps(bytes int, t sim.Time) float64 {
	return float64(bytes) * 8 / sim.Duration(t).Seconds() / 1e9
}

func mrate(msgs int, t sim.Time) float64 {
	return float64(msgs) / sim.Duration(t).Seconds() / 1e6
}
