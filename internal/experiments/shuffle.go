package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"strom/internal/hostmem"
	"strom/internal/kernels/shuffle"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

const shuffleOp = 0x04

// fig11SizesMB is Fig. 11's x axis (the paper's input sizes, divided by
// Options.ShuffleScale in the run; ratios between approaches are scale
// invariant because every cost in play is linear in the input).
var fig11SizesMB = []int{128, 256, 512, 1024}

// Fig11Shuffle reproduces Fig. 11: execution time to partition and
// transmit 8 B tuples with three approaches — software partitioning
// followed by per-buffer RDMA WRITEs (Barthels et al.), the StRoM shuffle
// kernel partitioning on reception, and a plain RDMA WRITE without
// partitioning (the lower bound).
func Fig11Shuffle(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure(
		fmt.Sprintf("Fig 11: data shuffling, 8B tuples, 1024 partitions (inputs scaled 1/%d)", o.ShuffleScale),
		"input size", "execution time s")
	sSW := fig.NewSeries("SW + RDMA WRITE")
	sStrom := fig.NewSeries("StRoM")
	sWrite := fig.NewSeries("RDMA WRITE")
	for _, mb := range fig11SizesMB {
		bytes := mb << 20 / o.ShuffleScale
		label := fmt.Sprintf("%dMB", mb)
		w, err := shufflePlainWrite(o, bytes)
		if err != nil {
			return nil, err
		}
		st, err := shuffleStrom(o, bytes)
		if err != nil {
			return nil, err
		}
		sw, err := shuffleSoftware(o, bytes)
		if err != nil {
			return nil, err
		}
		// Report in paper-scale seconds (linear costs: multiply back).
		k := float64(o.ShuffleScale)
		sSW.Add(float64(mb), label, sw.Seconds()*k)
		sStrom.Add(float64(mb), label, st.Seconds()*k)
		sWrite.Add(float64(mb), label, w.Seconds()*k)
	}
	return fig, nil
}

// shuffleData fills A's buffer with random tuples and returns the chunk
// plan (1 MB messages keep the DMA fetch pipelined with the wire).
func shuffleData(o Options, pair *testrig.Pair, bytes int) (chunks int, chunkBytes int, err error) {
	chunkBytes = 1 << 20
	if bytes < chunkBytes {
		chunkBytes = bytes
	}
	rng := rand.New(rand.NewSource(o.Seed + int64(bytes)))
	data := make([]byte, chunkBytes)
	for i := 0; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], rng.Uint64())
	}
	// One chunk's worth of tuples, reused for each message: the timing
	// is value independent and this keeps memory bounded.
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), data); err != nil {
		return 0, 0, err
	}
	return bytes / chunkBytes, chunkBytes, nil
}

// shufflePlainWrite: the lower bound — just stream the data.
func shufflePlainWrite(o Options, bytes int) (sim.Duration, error) {
	pair, err := newPair(o, profile10G(), int(8<<20))
	if err != nil {
		return 0, err
	}
	chunks, chunkBytes, err := shuffleData(o, pair, bytes)
	if err != nil {
		return 0, err
	}
	done, err := runWriteTrain(pair, chunks, chunkBytes)
	if err != nil {
		return 0, err
	}
	return sim.Duration(done), nil
}

// shuffleStrom: the shuffle kernel partitions on reception.
func shuffleStrom(o Options, bytes int) (sim.Duration, error) {
	// B needs room for the descriptor table plus all partition regions
	// (2x expectation each, plus per-partition slack).
	bufBytes := 2*bytes + shuffle.MaxPartitions*4096 + (8 << 20)
	pair, err := newPair(o, profile10G(), bufBytes)
	if err != nil {
		return 0, err
	}
	if err := pair.B.DeployKernel(shuffleOp, shuffle.New()); err != nil {
		return 0, err
	}
	chunks, chunkBytes, err := shuffleData(o, pair, bytes)
	if err != nil {
		return 0, err
	}
	const nParts = shuffle.MaxPartitions
	// Partition regions sized by expectation with slack (uniform radix).
	partBytes := (bytes/nParts)*2 + 4096
	table := make([]byte, nParts*shuffle.DescriptorSize)
	base := pair.BufB.Base() + hostmem.Addr((len(table)+4095)&^4095)
	for i := 0; i < nParts; i++ {
		binary.LittleEndian.PutUint64(table[i*8:], uint64(base)+uint64(i*partBytes))
	}
	if err := pair.B.Memory().WriteVirt(pair.BufB.Base(), table); err != nil {
		return 0, err
	}
	completion := base + hostmem.Addr(nParts*partBytes+64)
	params := shuffle.Params{
		TableAddress:      uint64(pair.BufB.Base()),
		NumPartitions:     nParts,
		CompletionAddress: uint64(completion),
		TotalTuples:       uint64(bytes / shuffle.TupleSize),
	}
	var total sim.Duration
	var runErr error
	var pollErr error
	start := sim.Time(0) // both processes start at t=0
	pair.Eng.Go("sender", func(p *sim.Process) {
		if err := pair.A.RPCSync(p, testrig.QPA, shuffleOp, params.Encode()); err != nil {
			runErr = err
			return
		}
		// Pipeline the chunk messages: post all, wait for the last.
		c := &sim.Completion[struct{}]{}
		remaining := chunks
		for i := 0; i < chunks; i++ {
			pair.A.PostRPCWrite(testrig.QPA, shuffleOp, uint64(pair.BufA.Base()), chunkBytes, func(err error) {
				if err != nil && runErr == nil {
					runErr = err
				}
				remaining--
				if remaining == 0 {
					c.Complete(struct{}{})
				}
			})
		}
		if _, err := c.Wait(p); err != nil {
			runErr = err
		}
	})
	// The shuffle is complete when the kernel posts the tuple count into
	// B's memory; B's own host CPU polls for it (its own shard when
	// sharded — the completion word must not be read across machines).
	pair.EngB.Go("completion", func(p *sim.Process) {
		raw, err := pair.B.Host().Poll(p, pair.B.Memory(), completion, 8, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b) != 0
		}, 0)
		if err != nil {
			pollErr = err
			return
		}
		if got := binary.LittleEndian.Uint64(raw); got != params.TotalTuples {
			pollErr = fmt.Errorf("shuffle lost tuples: %d/%d", got, params.TotalTuples)
			return
		}
		total = p.Now().Sub(start)
	})
	pair.Run()
	if runErr == nil {
		runErr = pollErr
	}
	if runErr != nil {
		return 0, runErr
	}
	return total, nil
}

// shuffleSoftware: the Barthels et al. baseline — the sender CPU
// partitions into 16-value buffers and writes each full buffer to its
// remote partition region with a separate RDMA WRITE.
func shuffleSoftware(o Options, bytes int) (sim.Duration, error) {
	pair, err := newPair(o, profile10G(), 2*bytes+shuffle.MaxPartitions*4096+(8<<20))
	if err != nil {
		return 0, err
	}
	tuples := bytes / shuffle.TupleSize
	const nParts = shuffle.MaxPartitions
	partBytes := (bytes/nParts)*2 + 4096
	host := pair.A.Host()
	var total sim.Duration
	var runErr error
	pair.Eng.Go("sender", func(p *sim.Process) {
		start := p.Now()
		// The partitioning pass: hash + copy every tuple into its buffer
		// (charged as a whole; the flush writes below interleave with it
		// in reality, but the CPU cost is what bounds the run).
		const batch = 1 << 16
		bufFills := make([]int, nParts)
		writes := 0
		issued := 0
		completed := 0
		allIssued := false
		done := &sim.Completion[struct{}]{}
		rng := rand.New(rand.NewSource(o.Seed))
		for t := 0; t < tuples; t += batch {
			n := batch
			if t+n > tuples {
				n = tuples - t
			}
			p.Sleep(host.PartitionDuration(n))
			// Every full 16-value buffer becomes one RDMA WRITE of 128 B.
			for i := 0; i < n; i++ {
				pid := rng.Intn(nParts)
				bufFills[pid]++
				if bufFills[pid] == shuffle.BufferValues {
					bufFills[pid] = 0
					writes++
					issued++
					dst := uint64(pair.BufB.Base()) + uint64(pid*partBytes)
					pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), dst,
						shuffle.BufferValues*shuffle.TupleSize, func(err error) {
							if err != nil && runErr == nil {
								runErr = err
							}
							completed++
							if allIssued && completed == issued {
								done.Complete(struct{}{})
							}
						})
				}
			}
		}
		// Flush remaining partial buffers.
		for pid, fill := range bufFills {
			if fill == 0 {
				continue
			}
			issued++
			dst := uint64(pair.BufB.Base()) + uint64(pid*partBytes)
			pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), dst, fill*shuffle.TupleSize, func(err error) {
				completed++
				if allIssued && completed == issued {
					done.Complete(struct{}{})
				}
			})
		}
		allIssued = true
		if completed == issued {
			done.Complete(struct{}{})
		}
		if _, err := done.Wait(p); err != nil {
			runErr = err
			return
		}
		total = p.Now().Sub(start)
	})
	pair.Run()
	if runErr != nil {
		return 0, runErr
	}
	return total, nil
}
