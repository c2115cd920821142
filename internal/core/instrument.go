package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"strom/internal/mr"
	"strom/internal/telemetry"
)

// Trace track (tid) layout inside a NIC's process (pid): tids 1-4 are the
// RoCE stack's pipelines and log lane, 5 the NIC's own log lane, 8-9 the
// DMA engine's streams, 16+qpn one lane per queue pair (host-visible
// operations), 64+i one lane per deployed kernel in rpcOp order.
const (
	traceTidNicLog     = 5
	traceTidQPBase     = 16
	traceTidKernelBase = 64
)

// nicTelemetry is the NIC's handle onto the observability layer; nil
// when telemetry is disabled, so hot paths pay one pointer compare.
// Metric handles the hot paths touch are resolved once — at attach time
// for the fixed set, on first use for per-(qp,op) keys — and held here,
// so steady-state instrumentation never formats label strings or walks
// the registry's lookup map (both allocate).
type nicTelemetry struct {
	reg    *telemetry.Registry
	tb     *telemetry.TraceBuffer
	pid    uint32
	name   string
	seenQP map[uint32]bool

	opHist map[opKey]*telemetry.Histogram // op_latency_ps, per (qp, op)
	opErrs map[string]*telemetry.Counter  // op_errors, per op
	qpSamp map[uint32]*qpSampleHandles    // TelemetrySample per-QP handles

	// TelemetrySample fixed handles, resolved at attach time.
	kernSamp []kernelSampleHandles // in deterministic rpcOp order
	dbHist   *telemetry.Histogram  // doorbell_backlog_ps
}

// opKey identifies one (queue pair, verb) latency series.
type opKey struct {
	qpn uint32
	op  string
}

// qpSampleHandles holds one QP's occupancy-sample instruments.
type qpSampleHandles struct {
	outstandingReads *telemetry.Histogram
	unackedPackets   *telemetry.Histogram
}

// kernelSampleHandles holds one deployed kernel's occupancy instruments
// plus the deployment they sample.
type kernelSampleHandles struct {
	d        *deployment
	inflight *telemetry.Gauge
	samples  *telemetry.Histogram
}

// AttachTelemetry wires the NIC and all its components (RoCE stack, DMA
// engine, kernels) into the observability layer under pid. The registry
// mirrors the counter table (nicCounters) via one collect callback; the
// trace buffer gets per-QP operation spans, per-kernel FSM lanes, and the
// stack/DMA tracks. Either argument may be nil. Call after deploying
// kernels so every deployment gets its trace lane.
func (n *NIC) AttachTelemetry(reg *telemetry.Registry, tb *telemetry.TraceBuffer, pid uint32, name string) {
	n.tel = &nicTelemetry{
		reg: reg, tb: tb, pid: pid, name: name,
		seenQP: make(map[uint32]bool),
		opHist: make(map[opKey]*telemetry.Histogram),
		opErrs: make(map[string]*telemetry.Counter),
		qpSamp: make(map[uint32]*qpSampleHandles),
	}
	tb.NameProcess(pid, "nic:"+name)
	tb.NameThread(pid, traceTidNicLog, "nic:log")
	n.stack.AttachTelemetry(tb, pid)
	n.dma.AttachTelemetry(tb, pid)
	nic := telemetry.L("nic", name)
	if reg != nil {
		n.mirrorCounters(reg, nic)
	}
	// One trace lane and occupancy instrumentation per deployed kernel,
	// assigned in rpcOp order so lane numbering is deterministic. The
	// sampling handles are resolved here, once, so TelemetrySample never
	// sorts or formats labels on the probe path.
	ops := make([]uint64, 0, len(n.kernels))
	for op := range n.kernels {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for i, op := range ops {
		d := n.kernels[op]
		d.ctx.tid = uint32(traceTidKernelBase + i)
		tb.NameThread(pid, d.ctx.tid, "kernel:"+d.kernel.Name())
		if reg != nil {
			lbl := telemetry.L("kernel", d.kernel.Name())
			n.tel.kernSamp = append(n.tel.kernSamp, kernelSampleHandles{
				d:        d,
				inflight: reg.Gauge("kernel_inflight_dma", nic, lbl),
				samples:  reg.Histogram("kernel_inflight_dma_samples", "commands", nic, lbl),
			})
		}
	}
	if reg != nil {
		n.tel.dbHist = reg.Histogram("doorbell_backlog_ps", "ps", nic)
	}
}

// mirrorCounters registers the NIC's collect callback. It refreshes one
// registry counter per counter-table row that names a metric, resolved
// here once, the per-class MR violation counters, and the QP state and
// PCIe utilisation gauges.
func (n *NIC) mirrorCounters(reg *telemetry.Registry, nic telemetry.Label) {
	ip := telemetry.L("nic", n.stack.Identity().IP.String())
	mirrors := make([]*telemetry.Counter, len(nicCounters))
	for i, c := range nicCounters {
		switch {
		case c.metric == "":
		case strings.HasPrefix(c.metric, "roce_"):
			mirrors[i] = reg.Counter(c.metric, ip)
		default:
			mirrors[i] = reg.Counter(c.metric, nic)
		}
	}
	var snap counts
	reg.OnCollect(func() {
		s := n.readCounts(&snap)
		for i, c := range nicCounters {
			mirrors[i].Set(c.read(s))
		}
		// Every violation class exports every collection so the label
		// set (and the telemetry diff baseline) is stable.
		for c := mr.Class(0); c < mr.NumClasses; c++ {
			reg.Counter("mr_validation_fail", nic, telemetry.L("class", c.String())).Set(n.mrt.FailCount(c))
		}
		n.stack.EachActiveQP(func(qpn uint32) {
			if state, err := n.stack.QPStateOf(qpn); err == nil {
				reg.Gauge("roce_qp_state", ip, telemetry.L("qp", strconv.Itoa(int(qpn)))).Set(float64(state))
			}
		})
		h2c, c2h := n.dma.Utilisation()
		reg.Gauge("pcie_h2c_utilisation", nic).Set(h2c)
		reg.Gauge("pcie_c2h_utilisation", nic).Set(c2h)
	})
}

// logf records a diagnostic on the NIC's log lane (structured tracing).
// name is the instant's short event name; format/args carry the full
// message.
func (n *NIC) logf(name, format string, args ...any) {
	if t := n.tel; t != nil && t.tb != nil {
		t.tb.Instant(t.pid, traceTidNicLog, "log", name, fmt.Sprintf(format, args...))
	}
}

// qpTid returns the trace lane for a queue pair, naming it on first use.
func (t *nicTelemetry) qpTid(qpn uint32) uint32 {
	tid := traceTidQPBase + qpn
	if t.tb != nil && !t.seenQP[qpn] {
		t.seenQP[qpn] = true
		t.tb.NameThread(t.pid, tid, fmt.Sprintf("qp%d", qpn))
	}
	return tid
}

// opLatency returns the latency histogram for a (qp, op) pair,
// resolving it through the registry (label formatting and all) only the
// first time the pair is seen; every later post is a map hit.
func (t *nicTelemetry) opLatency(qpn uint32, op string) *telemetry.Histogram {
	k := opKey{qpn: qpn, op: op}
	if h, ok := t.opHist[k]; ok {
		return h
	}
	h := t.reg.Histogram("op_latency_ps", "ps",
		telemetry.L("nic", t.name), telemetry.L("qp", strconv.FormatUint(uint64(qpn), 10)), telemetry.L("op", op))
	t.opHist[k] = h
	return h
}

// opErrors returns the error counter for a verb, resolved on first use.
func (t *nicTelemetry) opErrors(op string) *telemetry.Counter {
	if c, ok := t.opErrs[op]; ok {
		return c
	}
	c := t.reg.Counter("op_errors", telemetry.L("nic", t.name), telemetry.L("op", op))
	t.opErrs[op] = c
	return c
}

// instrumentVerb opens a host-posted verb's per-QP span (doorbell
// through remote acknowledgement) and resolves its per-QP latency
// histogram; observeVerb closes them when the caller is told. Both are
// no-ops when telemetry is disabled.
func (n *NIC) instrumentVerb(r *verb) {
	t := n.tel
	if t == nil {
		return
	}
	r.tel, r.start = t, n.eng.Now()
	r.tid = t.qpTid(r.qpn)
	r.hist = t.opLatency(r.qpn, opNames[r.v.Op])
}

func (n *NIC) observeVerb(r *verb, err error) {
	t := r.tel
	if t == nil {
		return
	}
	op := opNames[r.v.Op]
	d := n.eng.Now().Sub(r.start)
	arg := ""
	if err != nil {
		arg = err.Error()
		t.opErrors(op).Inc()
	}
	t.tb.Complete(t.pid, r.tid, "op", op, r.start, d, arg)
	r.hist.Observe(d)
}

// Health returns the NIC's scrapeable per-port health report in the
// taxonomy of internal/telemetry/export: every counter-table row with a
// health key, the per-class MR violations and their total, per-QP
// retransmissions and states, and outstanding_ops. It reads only this
// NIC's own state, so on a sharded testbed it is a valid
// export.ScrapeFunc for a source registered on the NIC's engine. Works
// with or without AttachTelemetry. The maps are reused: each call
// overwrites the last report.
func (n *NIC) Health() (map[string]uint64, map[string]float64) {
	h := &n.health
	if h.counters == nil {
		h.counters, h.gauges, h.qpKeys = make(map[string]uint64), make(map[string]float64), make(map[uint32]qpHealthKeys)
	}
	s := n.readCounts(&h.counts)
	counters, gauges := h.counters, h.gauges
	clear(counters)
	clear(gauges)
	for _, c := range nicCounters {
		if c.health != "" {
			counters[c.health] = c.read(s)
		}
	}
	var mrTotal uint64
	for c := mr.Class(0); c < mr.NumClasses; c++ {
		v := n.mrt.FailCount(c)
		mrTotal += v
		counters[mrViolationKeys[c]] = v
	}
	counters["mr_violations"] = mrTotal
	gauges["outstanding_ops"] = float64(s.roce.OpsPosted - s.roce.OpsCompleted)
	n.stack.EachActiveQP(func(qpn uint32) {
		k, ok := h.qpKeys[qpn]
		if !ok {
			qp := "qp" + strconv.FormatUint(uint64(qpn), 10)
			k = qpHealthKeys{state: qp + "_state", retrans: qp + "_retransmissions"}
			h.qpKeys[qpn] = k
		}
		if state, err := n.stack.QPStateOf(qpn); err == nil {
			gauges[k.state] = float64(state)
		}
		// Per-QP retransmission counters feed the retry-storm rate rule;
		// the counter lives outside qpState so QP resets never rewind it.
		counters[k.retrans] = n.stack.QPRetransmissions(qpn)
	})
	return counters, gauges
}

// nicHealth is the Health scrape's reused state: the counter snapshot,
// the two report maps and the per-QP metric names, formatted once per
// queue pair.
type nicHealth struct {
	counts   counts
	counters map[string]uint64
	gauges   map[string]float64
	qpKeys   map[uint32]qpHealthKeys
}

// qpHealthKeys names one queue pair's Health metrics.
type qpHealthKeys struct{ state, retrans string }

// mrViolationKeys names the per-class MR violation counters.
var mrViolationKeys = func() (k [mr.NumClasses]string) {
	for c := range k {
		k[c] = "mr_violation_" + mr.Class(c).String()
	}
	return k
}()

// TelemetrySample records the NIC's instantaneous occupancy into the
// registry — kernel in-flight DMA commands, per-QP outstanding reads and
// unacknowledged packets, doorbell backlog. Called from sampling probes;
// a no-op when telemetry is disabled.
func (n *NIC) TelemetrySample() {
	t := n.tel
	if t == nil || t.reg == nil {
		return
	}
	for _, k := range t.kernSamp {
		k.inflight.Set(float64(k.d.ctx.inflight))
		k.samples.ObserveInt(int64(k.d.ctx.inflight))
	}
	n.stack.EachActiveQP(func(qpn uint32) {
		h, ok := t.qpSamp[qpn]
		if !ok {
			nic := telemetry.L("nic", t.name)
			qp := telemetry.L("qp", strconv.FormatUint(uint64(qpn), 10))
			h = &qpSampleHandles{
				outstandingReads: t.reg.Histogram("qp_outstanding_reads", "reads", nic, qp),
				unackedPackets:   t.reg.Histogram("qp_unacked_packets", "packets", nic, qp),
			}
			t.qpSamp[qpn] = h
		}
		h.outstandingReads.ObserveInt(int64(n.stack.OutstandingReads(qpn)))
		h.unackedPackets.ObserveInt(int64(n.stack.PendingPackets(qpn)))
	})
	backlog := n.doorbell.NextFree().Sub(n.eng.Now())
	if backlog < 0 {
		backlog = 0
	}
	t.dbHist.Observe(backlog)
}
