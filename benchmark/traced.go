package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"strom/internal/sim"
)

// tracedShare divides a workload's round for the traced run: a traced
// round keeps every trace event the program records, so it replays a
// fifth of the ops, and the untraced rounds it is compared with replay
// the same fifth.
const tracedShare = 5

// referenceOps sizes the verbs-small rounds every traced run replays on
// the unsharded, the sharded and the checked testbed.
const referenceOps = 30_000

// exportOps sizes the round whose program-side trace is written out.
const exportOps = 200

// tracedResult is a traced run: the per-layer metrics.
type tracedResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// bestNSPerOp replays ops under o reps times on fresh testbeds and
// returns the fastest round's host ns per op.
func bestNSPerOp(w *workload, in inputs, seed int64, o roundOpts, rec *recording, reps int) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		rr, _, err := runRound(w, in, seed, o, rec)
		if err != nil {
			return 0, err
		}
		best = math.Min(best, float64(rr.runNS)/float64(len(in.ops)))
	}
	return best, nil
}

// runTraced is the traced run. It is separate from the end-to-end run
// and never feeds it: it times every layer in isolation, replays
// verbs-small on the unsharded, sharded and checked testbeds, and then
// alternates untraced and traced rounds of the workload, reading the
// layer counters of the traced ones. Spans are kept in memory and
// written to outDir at the end, beside the program's own trace export.
func runTraced(w *workload, cfg runConfig, env *environment, outDir string) (*tracedResult, error) {
	start := time.Now()
	spans := newSpanLog()
	m := make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		m[spec.Name] = 0 // a layer the workload bypasses reports zero work
	}

	timer := layerTimer{spans: spans, scale: cfg.scale}
	iso, err := isolatedLayers(timer)
	if err != nil {
		return nil, fmt.Errorf("isolated layers: %w", err)
	}
	ker, err := kernelLayers(timer)
	if err != nil {
		return nil, fmt.Errorf("kernel layers: %w", err)
	}
	for _, part := range []map[string]float64{iso, ker} {
		for k, v := range part {
			m[k] = v
		}
	}

	// verbs-small on the three testbeds. The sharded and the checked cost
	// are ratios to the plain one; what the NIC model adds to the bare
	// RoCE stack is the plain cost minus the stack's own.
	ref := workloadByName("verbs-small")
	refIn := generateInputs(ref, runConfig{seed: cfg.seed, ops: max(100, int(referenceOps*cfg.scale))})
	refRec := newRecording(refIn)
	var refNS [3]float64 // plain, sharded, checked
	for i, o := range []roundOpts{{}, {sharded: true}, {check: true}} {
		var err error
		if refNS[i], err = bestNSPerOp(ref, refIn, cfg.seed, o, refRec, layerReps); err != nil {
			return nil, err
		}
	}
	m["sim.sharded_cost_ratio"] = refNS[1] / refNS[0]
	m["chaos.checker_overhead_ratio"] = refNS[2] / refNS[0]
	m["core.nic_self_ns"] = refNS[0] - m["roce.post_complete_ns"]

	// The workload: one checked round, then untraced and traced rounds in
	// turn for the rest of the time.
	wcfg := cfg
	if wcfg.ops == 0 {
		wcfg.ops = w.ops / tracedShare
	}
	in := generateInputs(w, wcfg)
	ops := in.ops
	n := float64(len(ops))
	rec := newRecording(in)
	warm, err := checkedRound(w, in, cfg, rec)
	if err != nil {
		return nil, err
	}
	res := &tracedResult{metrics: m, attempted: len(ops), failed: rec.failed}
	simWarm := computeSim(ops, rec, warm.dig.end)

	trec := newRecording(in)
	trec.spans = spans
	bestPlain, bestTraced := math.Inf(1), math.Inf(1)
	var cpuNS, plainOps int64
	var plainFired uint64
	var tcnt counts
	kept := -1 // spans are kept for the first traced round only
	more := func(r int) bool {
		if cfg.rounds > 0 {
			return r < cfg.rounds
		}
		return r < layerReps || time.Since(start).Seconds() < cfg.seconds
	}
	for r := 0; more(r); r++ {
		pr, _, err := runRound(w, in, cfg.seed, roundOpts{}, rec)
		if err != nil {
			return nil, err
		}
		if pr.dig != warm.dig {
			return nil, fmt.Errorf("%s: untraced round %d lost determinism: digest %+v, checked round %+v", w.name, r, pr.dig, warm.dig)
		}
		bestPlain = math.Min(bestPlain, float64(pr.runNS)/n)
		cpuNS += pr.cpuNS
		plainOps += int64(len(ops))
		plainFired = pr.cnt.n[cFired]

		mark := len(spans.spans)
		spans.root = spans.beginUnder("round", -1, r, 0)
		tr, _, err := runRound(w, in, cfg.seed, roundOpts{tel: true}, trec)
		spans.end(spans.root, sim.Time(tr.dig.end))
		spans.root = -1
		if err != nil {
			return nil, err
		}
		if tr.dig != warm.dig {
			return nil, fmt.Errorf("%s: attaching telemetry changed the simulation: digest %+v, untraced %+v", w.name, tr.dig, warm.dig)
		}
		bestTraced = math.Min(bestTraced, float64(tr.runNS)/n)
		tcnt = tr.cnt
		if kept < 0 {
			kept = len(spans.spans)
		} else {
			spans.spans = spans.spans[:mark]
		}
		res.attempted += 2 * len(ops)
		res.failed += rec.failed + trec.failed
	}

	c := tcnt
	per := func(k counter) float64 { return float64(c.n[k]) / n }
	share := func(a, b counter) float64 {
		if c.n[b] == 0 {
			return 0
		}
		return float64(c.n[a]) / float64(c.n[b])
	}
	total := func(k counter) float64 { return float64(c.n[k]) }
	m["telemetry.traced_overhead_ratio"] = bestTraced / bestPlain
	m["sim.events_per_op"] = per(cFired)
	m["sim.host_ns_per_event"] = bestPlain * n / float64(plainFired)
	m["sim.cpu_ns_per_op"] = float64(cpuNS) / float64(plainOps)
	m["sim.op_p999_us"] = simWarm.p999
	m["sim.failed_op_share"] = float64(res.failed) / float64(res.attempted)
	m["packet.frames_per_op"] = per(cLinkFrames) + per(cSwitchFrames)
	m["fabric.link_utilisation"] = c.linkUtil
	m["fabric.switch_frames_per_op"] = per(cSwitchFrames)
	m["fabric.pfc_pauses"] = total(cPFC)
	m["fabric.ecn_marked"] = total(cECN)
	m["fabric.discards"] = total(cDiscards)
	m["roce.packets_per_op"] = per(cTxPackets)
	m["roce.acks_per_op"] = per(cAcks)
	m["roce.retransmissions"] = total(cRetrans)
	m["roce.timeouts"] = total(cTimeouts)
	m["pcie.dma_cmds_per_op"] = per(cDMACmds)
	m["pcie.dma_bytes_per_op"] = per(cDMABytes)
	m["pcie.split_segments_per_op"] = per(cSplitSegs)
	m["pcie.utilisation_h2c"] = c.utilH2C
	m["pcie.utilisation_c2h"] = c.utilC2H
	m["tlb.lookups_per_op"] = per(cTLBLookups)
	m["tlb.miss_share"] = share(cTLBMisses, cTLBLookups)
	m["core.doorbells_per_op"] = per(cDoorbells)
	m["core.rpcs_dispatched_per_op"] = per(cRPCs)
	m["core.kernel_dma_reads_per_op"] = per(cKernelDMAReads)
	m["core.stream_segments_per_op"] = per(cStreamSegs)
	m["kernels.traversal_hops_per_lookup"] = share(cHops, cLookups)
	m["kernels.consistency_retries"] = total(cConsistRereads)
	m["kvserve.ops_per_op"] = per(cKVOps)
	m["kvserve.retries"] = total(cKVRetries)
	m["kvserve.failovers"] = total(cKVFailovers)
	m["kvserve.torn_detected"] = total(cKVTorn)
	if c.n[cKVOps] > 0 {
		if err := kvAttribution(w, in, cfg.seed, spans, m); err != nil {
			return nil, err
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeProgramTrace(w, cfg.seed, outDir); err != nil {
		return nil, err
	}
	env.Rounds, env.OpsRound = int(plainOps)/len(ops), len(ops)
	env.ReadOps, env.WriteOps = simWarm.reads, simWarm.writes
	if err := spans.write(filepath.Join(outDir, "trace-"+w.name+".json"), *env); err != nil {
		return nil, err
	}
	return res, nil
}

// kvAttribution replays the KV op list untraced from a single client
// process, so that what happens between an op's start and its end
// belongs to that op alone: verbs posted, simulated latency and host
// time per kind of op. A Get counts as large when it was served from an
// extent.
func kvAttribution(w *workload, in inputs, seed int64, spans *spanLog, m map[string]float64) error {
	ops := in.ops
	rec := newRecording(in)
	rec.spans, rec.verbs, rec.spilled = spans, make([]uint32, len(ops)), make([]bool, len(ops))
	mark := len(spans.spans)
	spans.root = spans.beginUnder("round/attribution", -1, 0, 0)
	rr, _, err := runRound(w, in, seed, roundOpts{}, rec)
	spans.end(spans.root, sim.Time(rr.dig.end))
	spans.root = -1
	if err != nil {
		return err
	}
	if rec.failed != 0 {
		return fmt.Errorf("%s: %d ops failed in the attribution round", w.name, rec.failed)
	}
	type kindStat struct {
		lat    []sim.Duration
		verbs  uint64
		hostNS int64
	}
	stats := make(map[string]*kindStat)
	var gets, spilledGets int
	for _, s := range spans.spans[mark+1:] {
		o := ops[s.Op]
		name := ""
		switch o.kind {
		case opGet:
			gets++
			name = "get"
			if rec.spilled[s.Op] {
				spilledGets++
				name = "get_large"
			}
		case opPut:
			name = "put"
		case opPutLarge:
			name = "put_large"
		case opDelete:
			name = "delete"
		}
		st := stats[name]
		if st == nil {
			st = &kindStat{}
			stats[name] = st
		}
		st.lat = append(st.lat, rec.lat[s.Op])
		st.verbs += uint64(rec.verbs[s.Op])
		st.hostNS += s.HostEnd - s.HostStart
	}
	var getNS, putNS int64
	var getN, putN int
	for _, name := range []string{"get", "put", "delete", "get_large", "put_large"} {
		st := stats[name]
		if st == nil {
			st = &kindStat{}
		}
		count := float64(len(st.lat))
		sortDurations(st.lat)
		m["kvserve."+name+"_p50_us"] = rankUS(st.lat, 0.50)
		if name != "delete" {
			m["kvserve.verbs_per_"+name] = 0
			if count > 0 {
				m["kvserve.verbs_per_"+name] = float64(st.verbs) / count
			}
		}
		if name == "get" || name == "get_large" {
			getNS, getN = getNS+st.hostNS, getN+len(st.lat)
		} else {
			putNS, putN = putNS+st.hostNS, putN+len(st.lat)
		}
	}
	if gets > 0 {
		m["kvserve.spilled_get_share"] = float64(spilledGets) / float64(gets)
		m["kvserve.host_ns_per_get"] = float64(getNS) / float64(getN)
	}
	if putN > 0 {
		m["kvserve.host_ns_per_put"] = float64(putNS) / float64(putN)
	}
	return nil
}

// writeProgramTrace replays a short round with telemetry attached and
// writes the program's own exports: the metrics registry and the
// Perfetto trace.
func writeProgramTrace(w *workload, seed int64, outDir string) error {
	in := generateInputs(w, runConfig{seed: seed, ops: exportOps})
	_, bed, err := runRound(w, in, seed, roundOpts{tel: true}, newRecording(in))
	if err != nil {
		return err
	}
	reg, tb := bed.exports()
	if err := writeFile(filepath.Join(outDir, "metrics-"+w.name+".json"), reg.WriteJSON); err != nil {
		return err
	}
	return writeFile(filepath.Join(outDir, "perfetto-"+w.name+".json"), tb.WriteJSON)
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
