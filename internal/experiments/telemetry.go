package experiments

import (
	"fmt"
	"math/rand"

	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// telemetryRPCOp is the rpcOp the scenario deploys the traversal kernel
// under on machine B.
const telemetryRPCOp = 0x01

// exportClean is the clean scenario's export — the canonical
// instrumented run of the two-machine test bed:
//
//  1. one-sided WRITE and READ on a clean 10 G link,
//  2. hash-table GETs through the traversal kernel on B (postRpc →
//     kernel FSM → DMA → RDMA write-back, the full §5 path),
//  3. the same WRITE/READ, each losing two frames on a scripted schedule
//     — exercising retransmission, NAK, timeout and duplicate-READ-cache
//     machinery (and deliberately tripping the out-discards rate rule),
//  4. a clean WRITE confirming recovery,
//
// with occupancy probes sampling both NICs and the link every 2 µs.
func exportClean(o Options, ex Exports) error {
	o = o.normalized()
	pair, err := newPair(o, profile10G(), 32<<20)
	if err != nil {
		return err
	}
	if err := pair.B.DeployKernel(telemetryRPCOp, traversal.New(0)); err != nil {
		return err
	}
	taps := tapPair(pair, ex)

	// B hosts a small key-value store; A keeps the write source, read
	// destination and GET response regions in its one registered buffer.
	rng := rand.New(rand.NewSource(o.Seed))
	const valueSize = 96
	ht, keys, err := randomHashTable(pair, rng, 256, 8, valueSize)
	if err != nil {
		return err
	}

	const xfer = 64 << 10
	localA := uint64(pair.BufA.Base())
	respVA := pair.BufA.Base() + hostmem.Addr(xfer)
	remoteB := uint64(pair.BufB.Base()) + uint64(pair.BufB.Size()) - xfer
	payload := make([]byte, xfer)
	rng.Read(payload)
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), payload); err != nil {
		return err
	}

	var runErr error
	fail := func(stage string, err error) bool {
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("telemetry scenario: %s: %w", stage, err)
		}
		return err != nil
	}
	// lossy is phase 3's loss on one direction: the 10th frame to enter
	// it is dropped, and the 20th after that.
	lossy := func() *fabric.FrameScript {
		drop := fabric.Verdict{Drop: true}
		return &fabric.FrameScript{Steps: []fabric.FrameStep{{Nth: 9, Verdict: drop}, {Nth: 19, Verdict: drop}}}
	}
	pair.Eng.Go("telemetry-client", func(p *sim.Process) {
		// Phase 1: clean one-sided verbs.
		if fail("write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)) {
			return
		}
		if fail("read", pair.A.ReadSync(p, testrig.QPA, remoteB, localA, xfer)) {
			return
		}
		// Phase 2: GETs through the traversal kernel.
		for _, key := range keys {
			_, err := traversal.Lookup(p, pair.A, testrig.QPA, telemetryRPCOp,
				ht.TraversalParams(key, valueSize, respVA))
			if fail("lookup", err) {
				return
			}
		}
		// Phase 3: the same verbs under loss. The WRITE loses two data
		// frames: B NAKs the gap and A goes back N. The READ loses two
		// response frames: A times out once and repeats the request, which
		// B answers from its duplicate-READ cache. The losses are scripted,
		// so every seed takes these paths and no verb waits out a second
		// timer (two would hold it past the watchdog's 2 ms). The B→A
		// script belongs to machine B's shard and is armed there, one cable
		// delay after the WRITE; the sleep puts the READ behind it.
		pair.Link.SetFaultsAtoB(lossy())
		if fail("lossy write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)) {
			return
		}
		pair.OnB(func() { pair.Link.SetFaultsBtoA(lossy()) })
		p.Sleep(pair.Group.Lookahead())
		if fail("lossy read", pair.A.ReadSync(p, testrig.QPA, remoteB, localA, xfer)) {
			return
		}
		// Phase 4: recovery.
		fail("final write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer))
	})
	taps.run()
	if runErr != nil {
		return runErr
	}
	return taps.export()
}
