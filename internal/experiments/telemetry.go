package experiments

import (
	"fmt"
	"math/rand"

	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/kvstore"
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
//  3. the same WRITE/READ under 4% frame loss in both directions —
//     exercising retransmission, NAK and duplicate-READ-cache machinery
//     (and deliberately tripping the out-discards rate rule),
//  4. a clean WRITE confirming recovery,
//
// with occupancy probes sampling both NICs and the link every 2 µs.
// Metrics and trace alone run sharded when o.Shards asks for it; the
// JSONL stream pins the run to the single-engine bed, where mid-run
// registry collection is sound.
func exportClean(o Options, ex Exports) error {
	o = o.normalized()
	if ex.JSONL != nil {
		o = o.unsharded()
	}
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
	region := kvstore.NewRegion(pair.B.Memory(), pair.BufB)
	ht, err := kvstore.BuildHashTable(region, 256)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	const valueSize = 96
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = rng.Uint64()
		value := make([]byte, valueSize)
		rng.Read(value)
		if err := ht.Put(keys[i], value); err != nil {
			return err
		}
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
	// setLoss flips both directions' drop probability. The A→B side
	// belongs to this shard and flips immediately; the B→A side belongs
	// to machine B's shard, so the flip crosses via the group's outbox
	// and lands one lookahead later (immediately when unsharded). The
	// sleep puts the client past both flip points before the next verb —
	// at a simulated time that does not depend on the worker count.
	setLoss := func(p *sim.Process, drop float64) {
		pair.Link.SetFaultsAtoB(fabric.Coin{Rand: pair.Eng.Rand(), DropProb: drop})
		var d sim.Duration
		if pair.Group != nil {
			d = pair.Group.Lookahead()
		}
		pair.Eng.CrossSchedule(pair.EngB, d, func() {
			pair.Link.SetFaultsBtoA(fabric.Coin{Rand: pair.EngB.Rand(), DropProb: drop})
		})
		p.Sleep(d)
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
		// Phase 3: the same verbs under loss. Dropped data packets drive
		// timeouts and retransmissions; dropped READ responses make A
		// repeat the request, hitting B's duplicate-READ cache. The drop
		// probability stays well inside the transport retry budget.
		setLoss(p, 0.04)
		if fail("lossy write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)) {
			return
		}
		if fail("lossy read", pair.A.ReadSync(p, testrig.QPA, remoteB, localA, xfer)) {
			return
		}
		setLoss(p, 0)
		// Phase 4: recovery.
		fail("final write", pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer))
	})
	taps.run()
	if runErr != nil {
		return runErr
	}
	return taps.export()
}
