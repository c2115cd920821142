package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"

	"strom/internal/cpu"
	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

const consistencyOp = 0x03

// fig9Sizes is Fig. 9's x axis.
var fig9Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Fig9Consistency reproduces Fig. 9: median latency of reading a remote
// object without a consistency check ("READ"), with a CRC64 check on the
// local CPU ("READ+SW"), and with the check offloaded to the consistency
// kernel on the remote NIC ("StRoM").
func Fig9Consistency(o Options) (*stats.Figure, error) {
	o = o.normalized()
	return bandsFigure("Fig 9: consistent remote object read", "object size", fig9Sizes, sizeLabel,
		[]string{"READ", "READ+SW", "StRoM"}, func(size int) ([]*stats.Sample, error) { return consistencyLatencies(o, size) })
}

// consistencyBed prepares a CRC64-stamped object in B's memory and
// deploys the consistency kernel beside it.
func consistencyBed(o Options, size int) (*testrig.Pair, hostmem.Addr, []byte, error) {
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return nil, 0, nil, err
	}
	obj := make([]byte, size)
	rand.New(rand.NewSource(o.Seed + int64(size))).Read(obj)
	cpu.StampCRC64(obj)
	objVA := pair.BufB.Base() + 2<<20
	if err := pair.B.Memory().WriteVirt(objVA, obj); err != nil {
		return nil, 0, nil, err
	}
	if err := pair.B.DeployKernel(consistencyOp, consistency.New(0)); err != nil {
		return nil, 0, nil, err
	}
	return pair, objVA, obj, nil
}

// readChecked READs the size-byte object at objVA into A's buffer and
// checks its CRC64 on A's CPU; ok reports whether the check held.
func readChecked(p *sim.Process, pair *testrig.Pair, objVA hostmem.Addr, size int) (ok bool, err error) {
	if err := pair.A.ReadSync(p, testrig.QPA, uint64(objVA), uint64(pair.BufA.Base()), size); err != nil {
		return false, err
	}
	data, err := pair.A.Memory().ReadVirt(pair.BufA.Base(), size)
	if err != nil {
		return false, err
	}
	return pair.A.Host().CheckCRC64(p, data), nil
}

// kernelRead reads the same object through the consistency kernel.
func kernelRead(p *sim.Process, pair *testrig.Pair, objVA hostmem.Addr, size int) error {
	_, err := consistency.Read(p, pair.A, testrig.QPA, consistencyOp, consistency.Params{
		ObjectAddress: uint64(objVA), ObjectSize: uint32(size), ResponseAddress: uint64(pair.BufA.Base()),
	})
	return err
}

func consistencyLatencies(o Options, size int) ([]*stats.Sample, error) {
	pair, objVA, _, err := consistencyBed(o, size)
	if err != nil {
		return nil, err
	}
	read, sw, strom := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
	err = runClient(pair, func(p *sim.Process) error {
		for i := 0; i < o.Iterations; i++ {
			// Plain READ.
			start := p.Now()
			if err := pair.A.ReadSync(p, testrig.QPA, uint64(objVA), uint64(pair.BufA.Base()), size); err != nil {
				return err
			}
			read.Add(p.Now().Sub(start).Microseconds())

			// READ + software CRC64 on the requester CPU.
			start = p.Now()
			ok, err := readChecked(p, pair, objVA, size)
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("software check failed on a consistent object")
			}
			sw.Add(p.Now().Sub(start).Microseconds())

			// StRoM consistency kernel.
			start = p.Now()
			if err := kernelRead(p, pair, objVA, size); err != nil {
				return err
			}
			strom.Add(p.Now().Sub(start).Microseconds())
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return []*stats.Sample{read, sw, strom}, nil
}

// fig10Rates is Fig. 10's x axis (failure probabilities).
var fig10Rates = []float64{0, 0.005, 0.05, 0.5}

// fig10Sizes are the three object sizes plotted in Fig. 10.
var fig10Sizes = []int{64, 512, 4096}

// Fig10FailureRate reproduces Fig. 10: average latency of a consistent
// read when the first check fails with the given probability (the retry
// always succeeds), comparing READ+SW against StRoM for three sizes.
func Fig10FailureRate(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Fig 10: consistency-check failure rates", "failure rate", "avg latency us")
	for _, size := range fig10Sizes {
		sw := fig.NewSeries(fmt.Sprintf("READ+SW: %s", sizeLabel(size)))
		st := fig.NewSeries(fmt.Sprintf("StRoM: %s", sizeLabel(size)))
		for _, rate := range fig10Rates {
			swAvg, stAvg, err := failureRateLatencies(o, size, rate)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%g", rate)
			sw.Add(rate, label, swAvg)
			st.Add(rate, label, stAvg)
		}
	}
	return fig, nil
}

func failureRateLatencies(o Options, size int, rate float64) (swAvg, stromAvg float64, err error) {
	pair, objVA, good, err := consistencyBed(o, size)
	if err != nil {
		return 0, 0, err
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	rng := rand.New(rand.NewSource(o.Seed*7919 + int64(size) + int64(rate*1000)))
	var sw, strom stats.Sample
	var writeErr error
	// The concurrent writer runs on machine B: the client hands it each
	// version of the object, which lands d later (one cable delay at the
	// soonest) — before any request A sends from then on reaches B.
	write := func(d sim.Duration, obj []byte) {
		pair.Eng.CrossSchedule(pair.EngB, d, func() {
			if err := pair.B.Memory().WriteVirt(objVA, obj); err != nil && writeErr == nil {
				writeErr = err
			}
		})
	}
	asap := pair.Group.Lookahead()
	iters := o.Iterations * 2 // averages need a larger population
	err = runClient(pair, func(p *sim.Process) error {
		for i := 0; i < iters; i++ {
			failSW := rng.Float64() < rate
			failStrom := rng.Float64() < rate

			// READ+SW: the first read observes a torn object; the client
			// detects it and re-reads over the network (one extra RTT).
			write(asap, choose(failSW, bad, good))
			start := p.Now()
			for {
				ok, err := readChecked(p, pair, objVA, size)
				if err != nil {
					return err
				}
				if ok {
					break
				}
				// The concurrent writer finished: the next read succeeds.
				write(asap, good)
			}
			sw.Add(p.Now().Sub(start).Microseconds())

			// StRoM: the retry happens on the remote NIC over PCIe. The
			// writer finishes the update shortly after the kernel's first
			// read lands, so the re-read always succeeds.
			write(asap, choose(failStrom, bad, good))
			if failStrom {
				write(4500*sim.Nanosecond+sim.BytesAt(size, pair.A.Config().PCIe.BandwidthGbps), good)
			}
			start = p.Now()
			if err := kernelRead(p, pair, objVA, size); err != nil {
				return err
			}
			strom.Add(p.Now().Sub(start).Microseconds())
		}
		return nil
	}, nil)
	if err = cmp.Or(err, writeErr); err != nil {
		return 0, 0, err
	}
	return sw.Mean(), strom.Mean(), nil
}

func choose(cond bool, a, b []byte) []byte {
	if cond {
		return a
	}
	return b
}
