// Package roce implements the StRoM RoCE v2 network stack (§4.1): fully
// pipelined receive and transmit data paths with a clear separation from
// the state-keeping data structures (State Table, MSN Table, Multi-Queue,
// retransmission timers). The stack supports the one-sided verbs RDMA
// WRITE and RDMA READ plus the five StRoM op-codes of Table 1; two-sided
// operations are deliberately absent, since StRoM kernels replace them.
//
// Packets are processed as real serialized frames (see internal/packet);
// timing follows the paper's cycle counts: a parametrizable data path of
// 8–64 bytes per cycle, 5 cycles for the Process-BTH state update, and
// store-and-forward ICRC validation of one data word per cycle.
package roce

import (
	"strom/internal/sim"
)

// Config parametrizes a stack instance. The two presets correspond to the
// paper's 10 G (Virtex-7, §6.1) and 100 G (VCU118, §7) deployments.
type Config struct {
	// Name labels the configuration in reports ("10G", "100G").
	Name string
	// ClockMHz is the stack clock (156.25 MHz at 10 G, 322 MHz at 100 G).
	ClockMHz float64
	// DataPathBytes is the data-path word width (8 B at 10 G, 64 B at
	// 100 G); width × clock gives the internal processing bandwidth.
	DataPathBytes int
	// LineRateGbps is the Ethernet interface speed.
	LineRateGbps float64
	// MTUPayload is the per-packet payload (PathMTUPayload for MTU 1500).
	MTUPayload int
	// NumQPs is the number of queue pairs the state tables support; a
	// compile-time parameter in hardware with linear BRAM cost (§6.1).
	NumQPs int
	// ReadDepthPerQP bounds outstanding RDMA reads per queue pair (the
	// per-QP linked list in the Multi-Queue).
	ReadDepthPerQP int
	// MultiQueuePool is the total element count shared by all per-QP
	// lists ("the combined length of all linked lists is fixed", §4.1).
	MultiQueuePool int
	// RetransTimeout is the per-QP retransmission timer interval.
	RetransTimeout sim.Duration
	// MaxRetries bounds retransmission attempts before a request fails.
	MaxRetries int
}

// Fixed pipeline latencies, the same at 10 G and 100 G.
const (
	// rxFixedCycles covers header parsing, the 5-cycle PSN check and the
	// RETH/AETH FSM on the receive path.
	rxFixedCycles = 35
	// txFixedCycles covers the request handler and header generation on
	// the transmit path.
	txFixedCycles = 25
)

// Config10G returns the 10 Gbit/s configuration (Alpha Data 7V3).
func Config10G() Config {
	return Config{
		Name:           "10G",
		ClockMHz:       156.25,
		DataPathBytes:  8,
		LineRateGbps:   10,
		MTUPayload:     1408,
		NumQPs:         500,
		ReadDepthPerQP: 16,
		MultiQueuePool: 1024,
		RetransTimeout: 500 * sim.Microsecond,
		MaxRetries:     16,
	}
}

// Config100G returns the 100 Gbit/s configuration (VCU118, §7): the same
// circuit with the data path widened to 64 B and the clock raised to
// 322 MHz.
func Config100G() Config {
	return Config{
		Name:           "100G",
		ClockMHz:       322,
		DataPathBytes:  64,
		LineRateGbps:   100,
		MTUPayload:     1408,
		NumQPs:         500,
		ReadDepthPerQP: 64,
		MultiQueuePool: 4096,
		RetransTimeout: 250 * sim.Microsecond,
		MaxRetries:     16,
	}
}

// Cycle returns the duration of one stack clock cycle.
func (c Config) Cycle() sim.Duration { return sim.Cycles(1, c.ClockMHz) }

// Cycles returns the duration of n stack clock cycles.
func (c Config) Cycles(n int) sim.Duration { return sim.Cycles(n, c.ClockMHz) }
