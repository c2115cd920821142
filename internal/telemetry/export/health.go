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
// NIC port (core.NIC.Health — one report per machine): every row of
// the NIC's counter table (nicCounters in internal/core) that names a
// health key — the rows of fcs_err, in_discards and stomped_crc say what
// the switch-style classes count here — plus mr_violations with one
// mr_violation_<class> counter per violation class, per active queue
// pair qp<N>_retransmissions, and gauges `outstanding_ops` (posted −
// completed) and `qp<N>_state` (0 RTS, 1 ERROR, 2 RESET).
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
//	                     pool exhausted), out_discards_no_route
//	                     (unknown destination MAC) and
//	                     out_discards_wire (injected loss on the
//	                     egress wire)
//	pfc_pause_tx/pfc_resume_tx  PFC control frames emitted toward the
//	                     attached NIC when the port's buffer usage
//	                     crosses the watermarks
//	ecn_marked           frames CE-marked at this egress queue
//
// and gauges `egress_queue_bytes`, `egress_queue_frames`,
// `ingress_used_bytes` and `utilisation`. The NIC-side attachment
// (fabric.Port.Health) mirrors the control plane from the receiving
// end: counters pfc_pause_rx/pfc_resume_rx/frames_held, the uplink
// wire's out_discards/fcs_err/dup_frames/delayed_frames, and gauges
// `held_frames`/`paused`.
//
// A scrape must not allocate. It runs at the probe interval, which on
// the KV beds is every 20 µs for every source: building fresh maps each
// time made the failure detector's scrape a sixth of a KV replay's host
// time. Every source above reuses its maps (see ScrapeFunc).

// ScrapeFunc returns a point-in-time health report: named counters
// (cumulative) and gauges. Implementations must read only state owned
// by the engine the source was registered on (the shard contract). The
// recorder copies a report into its own sorted form, and encodes it when
// a reader is declared, before it calls the source again, so a source
// keeps two maps and overwrites them on every call; one whose key set
// can shrink clears them first.
type ScrapeFunc func() (counters map[string]uint64, gauges map[string]float64)

// healthPayload is the JSON payload of a "health" event: a nil counters
// map encodes as null, empty delta and gauges are omitted.
type healthPayload struct {
	Object   string             `json:"object"`
	Counters map[string]uint64  `json:"counters"`
	Delta    map[string]uint64  `json:"delta,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}
