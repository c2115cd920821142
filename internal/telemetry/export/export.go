// Package export is the streaming side of the observability layer: it
// turns the simulated testbed's counters, gauges and histograms into a
// JSON-Lines telemetry stream an operator (or the stromtail command)
// can watch, the way real RDMA fabrics are monitored — one envelope per
// scrape per object, arc-switch/syslogwriter style, with
// deltas-since-last-scrape included.
//
// The package has three layers:
//
//   - Envelope (Event, Encode, Decode): one JSONL line per event with a
//     simulated timestamp, host, subsystem, message type, per-segment
//     sequence number and a JSON payload. Encoding is deterministic
//     (struct field order, sorted map keys), so same-seed runs emit
//     byte-identical streams.
//
//   - Recorder: a DES-driven periodic scraper. Health sources (the
//     per-port/per-link surfaces of core.NIC and fabric.Link) and
//     optionally a whole telemetry.Registry are scraped every interval
//     of simulated time; each scrape emits health/metrics events into a
//     per-engine segment. Segments are merged deterministically at
//     export time — (timestamp, segment rank, sequence) — so a sharded
//     testbed produces the identical stream at every worker count.
//
//   - Alerts: declarative threshold / rate / no-progress rules
//     evaluated at every scrape point, emitting alert events into the
//     same stream plus a final per-rule summary.
//
// Determinism contract: all scrape times come from the owning engines'
// clocks, sources are scraped in registration order, rules are
// evaluated in declaration order, and every encoder sorts its keys.
package export

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Event is the syslogwriter-style JSONL envelope: every line of the
// stream is exactly one Event. Data holds the type-specific payload
// (health counters, metric values, an alert, ...) as raw JSON.
type Event struct {
	// TS is the simulated time of the event in picoseconds.
	TS int64 `json:"ts_ps"`
	// Seq numbers events within their segment (one segment per engine
	// shard), starting at 0. Within one (host, subsystem) pair it is
	// monotonically increasing.
	Seq uint64 `json:"seq"`
	// Host names the machine (or pseudo-host, e.g. "fabric") the event
	// describes.
	Host string `json:"host"`
	// Subsystem locates the event's origin: "port", "link", "alert", or
	// a registry subsystem ("roce", "core", "pcie", "chaos", "mr", ...).
	Subsystem string `json:"subsystem"`
	// Type is the message type: "health", "metrics", "alert",
	// "resolve", "summary".
	Type string `json:"type"`
	// Data is the payload, canonical JSON (sorted keys).
	Data json.RawMessage `json:"data,omitempty"`
}

// Encode renders the event as one JSON line, newline-terminated. The
// encoding is deterministic: envelope fields appear in declaration
// order and Data is embedded verbatim (payloads built by this package
// are canonical already).
func Encode(ev Event) ([]byte, error) {
	out, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("export: encode: %w", err)
	}
	return append(out, '\n'), nil
}

// Decode parses one JSONL line back into an Event. Blank lines and
// envelopes missing a type are rejected.
func Decode(line []byte) (Event, error) {
	var ev Event
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return ev, fmt.Errorf("export: decode: empty line")
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		return ev, fmt.Errorf("export: decode: %w", err)
	}
	if ev.Type == "" {
		return ev, fmt.Errorf("export: decode: envelope missing type")
	}
	if ev.TS < 0 {
		return ev, fmt.Errorf("export: decode: negative timestamp %d", ev.TS)
	}
	return ev, nil
}
