package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"strom/internal/cpu"
	"strom/internal/kernels/hllkernel"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

const hllOp = 0x05

// fig13aThreads is Fig. 13a's x axis.
var fig13aThreads = []int{1, 2, 4, 8}

// Fig13aHLLCPU reproduces Fig. 13a: the CPU-only HLL baseline. Data is
// fed to the server over StRoM (plain RDMA writes at 100 G) and the CPU
// runs HyperLogLog over it as it arrives; the reported value is the
// sustained processing throughput per thread count.
func Fig13aHLLCPU(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig 13a: HLL throughput on the CPU (data received via StRoM)",
		"#threads", "throughput Gbit/s")
	s := fig.NewSeries("CPU HLL")
	for _, threads := range fig13aThreads {
		g, err := hllCPUThroughput(o, threads)
		if err != nil {
			return nil, err
		}
		s.Add(float64(threads), fmt.Sprintf("%d", threads), g)
	}
	return fig, nil
}

func hllCPUThroughput(o Options, threads int) (float64, error) {
	pair, err := newPair(o, profile100G(), 16<<20)
	if err != nil {
		return 0, err
	}
	// The software HLL runs on machine B's CPU; A's write completions tell
	// it a chunk has landed, one cable delay later.
	swHLL := cpu.NewSoftwareHLL(pair.EngB, pair.B.Host(), threads, 14)
	const chunk = 1 << 20
	chunks := streamMsgs(o, chunk, maxWriteMsgs)
	total := chunks * chunk
	// Fill one source chunk with random 8 B items.
	rng := rand.New(rand.NewSource(o.Seed + int64(threads)))
	data := make([]byte, chunk)
	for i := 0; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], rng.Uint64())
	}
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), data); err != nil {
		return 0, err
	}
	remaining := chunks
	var finish sim.Time
	var opErr, ingestErr error
	ingest := func() {
		landed, err := pair.B.Memory().ReadVirt(pair.BufB.Base(), chunk)
		if err != nil && ingestErr == nil {
			ingestErr = err
		}
		end := swHLL.Ingest(landed)
		if remaining--; remaining == 0 {
			finish = end
		}
	}
	pair.Eng.Schedule(0, func() {
		for i := 0; i < chunks; i++ {
			dst := uint64(pair.BufB.Base()) + uint64(i*chunk%(8<<20))
			pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), dst, chunk, func(err error) {
				if err != nil && opErr == nil {
					opErr = err
				}
				pair.OnB(ingest)
			})
		}
	})
	pair.Run()
	if opErr == nil {
		opErr = ingestErr
	}
	if opErr != nil {
		return 0, opErr
	}
	if remaining != 0 {
		return 0, fmt.Errorf("hll cpu stream stalled")
	}
	return gbps(total, finish), nil
}

// fig13bPayloads is Fig. 13b's x axis (2^6 .. 2^14).
var fig13bPayloads = []int{64, 128, 512, 1024, 4096, 16384}

// Fig13bHLLStRoM reproduces Fig. 13b: throughput of plain RDMA writes
// versus writes processed by the HLL kernel on the stream — the kernel
// runs at line rate, so the two must coincide.
func Fig13bHLLStRoM(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig 13b: HLL on StRoM at 100G", "payload", "throughput Gbit/s")
	sHLL := fig.NewSeries("StRoM: Write+HLL")
	sW := fig.NewSeries("StRoM: Write")
	for _, size := range fig13bPayloads {
		w, err := writeThroughput(o, profile100G(), size)
		if err != nil {
			return nil, err
		}
		h, err := hllKernelThroughput(o, size)
		if err != nil {
			return nil, err
		}
		sHLL.Add(float64(size), sizeLabel(size), h)
		sW.Add(float64(size), sizeLabel(size), w)
	}
	return fig, nil
}

func hllKernelThroughput(o Options, size int) (float64, error) {
	pair, err := newPair(o, profile100G(), 16<<20)
	if err != nil {
		return 0, err
	}
	kern := hllkernel.MustNew(14)
	if err := pair.B.DeployKernel(hllOp, kern); err != nil {
		return 0, err
	}
	msgs := streamMsgs(o, size, maxWriteMsgs)
	total := msgs * size
	params := hllkernel.Params{
		DataAddress:   uint64(pair.BufB.Base()),
		ResultAddress: uint64(pair.BufB.Base() + 12<<20),
		Reset:         true,
	}
	remaining := msgs
	var done sim.Time
	var opErr error
	pair.Eng.Schedule(0, func() {
		pair.A.PostRPC(testrig.QPA, hllOp, params.Encode(), func(err error) {
			if err != nil {
				opErr = err
				return
			}
			for i := 0; i < msgs; i++ {
				src := uint64(pair.BufA.Base()) + uint64(i*size%(4<<20))
				pair.A.PostRPCWrite(testrig.QPA, hllOp, src, size, func(err error) {
					if err != nil && opErr == nil {
						opErr = err
					}
					remaining--
					if remaining == 0 {
						done = pair.Eng.Now()
					}
				})
			}
		})
	})
	pair.Run()
	if opErr != nil {
		return 0, opErr
	}
	if remaining != 0 {
		return 0, fmt.Errorf("hll kernel stream stalled")
	}
	if kern.Stats().Bytes != uint64(total) {
		return 0, fmt.Errorf("kernel saw %d bytes, want %d", kern.Stats().Bytes, total)
	}
	return gbps(total, done), nil
}
