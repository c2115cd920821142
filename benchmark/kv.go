package main

import (
	"errors"
	"fmt"
	"math/rand"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/kvserve"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
	keygen "strom/internal/workload"
)

// Shape of the two KV workloads: one client machine and three servers on
// the PFC/ECN switch, the failure-detection path running as in
// production.
const (
	kvMachines    = 4
	kvClients     = 2
	kvKeys        = 1024
	kvBufBytes    = 1 << 20
	kvScrapeEvery = 20 * sim.Microsecond
	kvZipfTheta   = 0.9
)

// kvSwitchConfig is the shared-buffer switch the incast and chaos-kv
// experiments run on: 10 G ports, PFC and ECN enabled. The values are
// those of experiments.IncastSwitchConfig, repeated here so that retuning
// the experiment cannot silently change what kv-* measure: a test asserts
// the two are equal, and the day it fails is a decision about the
// benchmark's baseline.
func kvSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Link:              fabric.DirectCable10G(),
		Forwarding:        500 * sim.Nanosecond,
		BufferBytes:       512 << 10,
		PFCPauseBytes:     32 << 10,
		ECNThresholdBytes: 16 << 10,
	}
}

// kvWorkload builds kv-inline (large=false) or kv-large (large=true):
// the same testbed and key popularity, with values stored inline in the
// slot or spilled to CRC-guarded extents.
func kvWorkload(name, why string, ops int, large bool) *workload {
	return &workload{
		name: name, why: why, ops: ops, clients: kvClients,
		generate: func(rng *rand.Rand, n int) ([]op, any) {
			zipf, err := keygen.NewZipfian(kvKeys/kvClients, kvZipfTheta, rng.Int63(), true)
			if err != nil {
				panic(err) // constant arguments
			}
			put := opPut
			if large {
				put = opPutLarge
			}
			out := make([]op, n)
			for i, kind := range mixKinds(rng, n, kvClients, []opKind{opGet, put, opDelete}, []int{60, 35, 5}) {
				// Client i%kvClients owns the keys of its residue class, so
				// every key has a single writer.
				key := uint64(zipf.Next())*kvClients + uint64(i%kvClients) + 1
				out[i] = op{kind: kind, arg: key}
			}
			return out, nil
		},
		setup: func(_ any, seed int64, o roundOpts) (testbed, error) {
			return newKVBed(seed, o, large)
		},
	}
}

type kvBed struct {
	net      *testrig.Net
	cl       *kvserve.Cluster
	reg      *telemetry.Registry
	tb       *telemetry.TraceBuffer // traced rounds only
	o        roundOpts
	checkers []*chaos.Checker
}

func newKVBed(seed int64, o roundOpts, large bool) (*kvBed, error) {
	net, err := testrig.NewNet(seed, kvMachines, core.Profile10G(), kvSwitchConfig(), kvBufBytes)
	if err != nil {
		return nil, err
	}
	b := &kvBed{net: net, o: o, reg: telemetry.NewRegistry()}
	if o.check {
		b.checkers = net.AttachCheckers()
	}
	if o.tel {
		b.tb = telemetry.NewTrace(net.SwEng)
		for i, m := range net.Machines {
			m.NIC.AttachTelemetry(b.reg, b.tb, uint32(i+1), fmt.Sprintf("m%d", i))
		}
	}
	b.cl, err = kvserve.New(net, kvserve.Config{
		ClientMachine:  0,
		ServerMachines: []int{1, 2, 3},
		NumKeys:        kvKeys,
		Sessions:       kvClients,
		Registry:       b.reg,
	})
	if err != nil {
		return nil, err
	}
	rec := export.NewRecorder(append(export.DefaultRules(), kvserve.HeartbeatRule()))
	b.cl.RegisterHealth(rec)
	b.cl.AttachController(rec)
	if o.tel {
		net.RecordJSONL(rec)
		rec.Registry(net.SwEng, "testbed", b.reg)
	}
	rec.Start(kvScrapeEvery)

	// Pre-populate every key, in its own simulation pass: the timed
	// replay then starts from a full store at a later simulated time.
	var popErr error
	c := b.cl.Client
	net.Machines[0].Eng.Go("populate", func(p *sim.Process) {
		for key := uint64(1); key <= kvKeys && popErr == nil; key++ {
			if large {
				popErr = c.PutLarge(p, key)
			} else {
				popErr = c.Put(p, key)
			}
		}
	})
	net.Run()
	if popErr != nil {
		return nil, fmt.Errorf("populate: %w", popErr)
	}
	return b, nil
}

func (b *kvBed) drive(ops []op, rec *recording) {
	// The attribution round of a traced run drives every op from one
	// process, so the verbs the client NIC posts between an op's start
	// and its end are that op's own.
	clients := kvClients
	if rec.verbs != nil {
		clients = 1
	}
	for cli := 0; cli < clients; cli++ {
		b.net.Machines[0].Eng.Go(fmt.Sprintf("kv-client-%d", cli), func(p *sim.Process) {
			for i := cli; i < len(ops); i += clients {
				b.doOp(p, i, ops[i], rec)
			}
		})
	}
	b.net.Run()
}

func (b *kvBed) doOp(p *sim.Process, i int, o op, rec *recording) {
	c := b.cl.Client
	nic := b.net.Machines[0].NIC
	var posted uint64
	if rec.verbs != nil {
		posted = nic.Stack().Stats().OpsPosted
	}
	start := p.Now()
	sp := rec.spans.begin(opKindNames[o.kind], i, start)
	var err error
	var slot kvserve.Slot
	switch o.kind {
	case opGet:
		slot, _, err = c.Get(p, o.arg)
	case opPut:
		err = c.Put(p, o.arg)
	case opPutLarge:
		err = c.PutLarge(p, o.arg)
	case opDelete:
		err = c.Delete(p, o.arg)
	default:
		err = errors.New("kv: op kind of another workload")
	}
	now := p.Now()
	rec.spans.end(sp, now)
	rec.completed(i, now.Sub(start), err)
	if rec.verbs != nil {
		rec.verbs[i] = uint32(nic.Stack().Stats().OpsPosted - posted)
		rec.spilled[i] = slot.Flags&kvserve.FlagSpilled != 0
	}
	if b.o.check && err == nil {
		switch o.kind {
		case opGet:
			rec.bytes += uint64(len(slot.Val))
		case opPut:
			rec.bytes += uint64(len(kvserve.ValueFor(o.arg, c.Issued(o.arg))))
		case opPutLarge:
			rec.bytes += uint64(len(kvserve.LargeValueFor(o.arg, c.Issued(o.arg))))
		}
	}
}

func (b *kvBed) verify(ops []op, rec *recording) []string {
	var bad []string
	for _, ck := range b.checkers {
		bad = append(bad, ck.Finish()...)
	}
	st := b.cl.Client.Stats
	if st.StaleServed != 0 || st.Misapplied != 0 || st.TornServed != 0 {
		bad = append(bad, fmt.Sprintf("guarantee counters: %d stale served, %d misapplied, %d torn served", st.StaleServed, st.Misapplied, st.TornServed))
	}
	if d := b.cl.Client.Deficits(); d != 0 {
		bad = append(bad, fmt.Sprintf("%d replica writes still owed", d))
	}
	bad = append(bad, b.cl.Audit()...)
	if done := st.Gets + st.Puts; done != uint64(len(ops))+kvKeys {
		bad = append(bad, fmt.Sprintf("completed ops %d != attempted %d", done, len(ops)+kvKeys))
	}
	if rec.failed != 0 {
		bad = append(bad, fmt.Sprintf("%d ops returned an error", rec.failed))
	}
	return bad
}

func (b *kvBed) now() sim.Time { return b.net.SwEng.Now() }

func (b *kvBed) exports() (*telemetry.Registry, *telemetry.TraceBuffer) { return b.reg, b.tb }

func (b *kvBed) counts() counts {
	var c counts
	c.n[cFired] = b.net.SwEng.Fired()
	for i, m := range b.net.Machines {
		addNIC(&c, m.NIC, i == 0)
	}
	for i := 0; i < b.net.Sw.NumPorts(); i++ {
		ps := b.net.Sw.PortStats(i)
		c.n[cSwitchFrames] += ps.InFrames
		c.n[cPFC] += ps.PauseTx
		c.n[cECN] += ps.EcnMarked
		c.n[cDiscards] += ps.Discards
	}
	st := b.cl.Client.Stats
	c.n[cKVOps] = st.Gets + st.Puts
	c.n[cKVRetries] = st.Retries
	c.n[cKVFailovers] = st.Failovers
	c.n[cKVTorn] = st.TornDetected
	for _, k := range b.cl.Kernels {
		c.n[cConsistRereads] += k.Stats().Rereads
	}
	if b.o.tel {
		addTLB(&c, b.reg)
	}
	return c
}
