package export

// Health-counter taxonomy.
//
// Health sources expose their state as flat maps of named counters and
// gauges, modeled on the error-counter taxonomy real switch telemetry
// parsers use (`show interface counters errors` → FCS-Err, OutDiscards,
// Stomped-CRC, ...): one scrapeable report per NIC port and per link
// direction, with error classes as distinct counters rather than one
// aggregate. The canonical names, and what the simulated stack maps
// into them, are:
//
// NIC port (core.NIC.Health — one report per machine):
//
//	in_frames/out_frames,            roce Rx/TxPackets
//	in_bytes/out_bytes               roce Rx/TxBytes
//	fcs_err              ⇐ roce RxDiscarded: undecodable frames (bad
//	                       ICRC after wire corruption — the FCS-Err
//	                       analogue)
//	in_discards          ⇐ core FramesDroppedDown: frames arriving
//	                       while the machine is crashed/offline
//	stomped_crc          ⇐ roce DupReadCacheMiss: duplicate READs
//	                       outside the recent-read cache, whose payload
//	                       identity can no longer be proven (corruption
//	                       detected beyond this hop)
//	rcv_dup, rcv_ooo     ⇐ roce RxDuplicates / RxOutOfOrder
//	acks_tx/rx, naks_tx/rx, retransmissions, timeouts, deadline_expired
//	remote_access_naks   ⇐ roce NaksRemoteAccess (NAK 0x62 sent)
//	mr_violations        ⇐ mr.Table total validation failures, plus
//	mr_violation_<class>   one counter per violation class
//	qp_errors, qp_resets ⇐ roce QP lifecycle transitions
//	kernel_faults        ⇐ core KernelMRFaults (sandboxed kernel DMA)
//	kernel_aborts        ⇐ core KernelAborts (FSMs killed by a crash)
//	dma_stalled          ⇐ pcie StalledCmds
//	ops_posted, ops_completed ⇐ roce verb lifecycle counters
//
// and gauges `outstanding_ops` (posted − completed) and `qp<N>_state`
// (0 RTS, 1 ERROR, 2 RESET) per active queue pair.
//
// Link direction (fabric.Link.HealthAtoB/HealthBtoA — one report per
// direction):
//
//	out_frames, out_bytes
//	out_discards         total frames dropped on the wire, broken down
//	                     by cause into out_discards_chaos (injected
//	                     loss), out_discards_flap (link-down window)
//	                     and out_discards_offline (direction taken
//	                     offline)
//	fcs_err              frames corrupted in flight (the receiver
//	                     discards them on ICRC)
//	dup_frames, delayed_frames
//
// and gauge `utilisation` (wire occupancy since time zero).
//
// Switch port (fabric.Switch.PortHealth — one report per port of a
// shared-buffer switch):
//
//	in_frames, in_bytes  frames arriving at the port's ingress
//	out_frames, out_bytes frames sent on the port's egress wire
//	out_discards         total frames dropped at this port, broken down
//	                     by cause into out_discards_overflow (shared
//	                     pool exhausted), out_discards_threshold
//	                     (per-port dynamic threshold),
//	                     out_discards_no_route (unknown destination
//	                     MAC) and out_discards_wire (injected loss on
//	                     the egress wire)
//	pfc_pause_tx/pfc_resume_tx  PFC control frames emitted toward the
//	                     attached NIC when the per-(port,priority)
//	                     buffer usage crosses the watermarks
//	ecn_marked           frames CE-marked at this egress queue
//
// and gauges `egress_queue_bytes`, `egress_queue_frames`,
// `ingress_used_bytes` and `utilisation`. The NIC-side attachment
// (fabric.Port.Health) mirrors the control plane from the receiving
// end: counters pfc_pause_rx/pfc_resume_rx/frames_held and gauges
// `held_frames`/`paused`.
//
// A scrape must be cheap but need not be allocation-free: it runs at
// the probe interval, not per packet.

// ScrapeFunc returns a point-in-time health report: named counters
// (cumulative) and gauges. Implementations must read only state owned
// by the engine the source was registered on (the shard contract).
type ScrapeFunc func() (counters map[string]uint64, gauges map[string]float64)

// healthPayload is the JSON payload of a "health" event.
type healthPayload struct {
	Object   string             `json:"object"`
	Counters map[string]uint64  `json:"counters"`
	Delta    map[string]uint64  `json:"delta,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}
