// Package tcprpc models the paper's third baseline: rpcgen-generated RPC
// over kernel TCP (§6.2). The remote CPU executes the handler, so the
// data-structure walk itself is fast (~80 ns per element in cache-warm
// DRAM) but every call pays two traversals of the kernel network stack,
// socket wake-ups, and user/kernel copies — a round-trip floor around
// 13–15 µs that dwarfs RDMA, plus per-byte costs that grow with the
// response ("suffers from long message passing latency for value sizes
// larger than 256 B", Fig. 8).
package tcprpc

import (
	"strom/internal/sim"
)

// Config is the TCP/RPC cost model.
type Config struct {
	// StackLatency is the kernel TCP/IP transmit path plus syscall per
	// message.
	StackLatency sim.Duration
	// WakeupLatency is the receive interrupt plus scheduler wake-up.
	WakeupLatency sim.Duration
	// CopyNsPerByte covers the user/kernel copies on each side.
	CopyNsPerByte float64
	// BandwidthGbps is the wire rate.
	BandwidthGbps float64
	// RPCOverhead is the rpcgen marshalling cost per call (XDR encode
	// and decode of arguments and results).
	RPCOverhead sim.Duration
}

// Default returns the model calibrated to the figures: small-payload
// round trips around 14 µs, growing noticeably past 256 B responses.
func Default() Config {
	return Config{
		StackLatency:  2500 * sim.Nanosecond,
		WakeupLatency: 1800 * sim.Nanosecond,
		CopyNsPerByte: 1.5,
		BandwidthGbps: 10,
		RPCOverhead:   1500 * sim.Nanosecond,
	}
}

// Handler executes a request on the server CPU and returns the response
// plus the compute time to charge (e.g. 80 ns per pointer chase).
type Handler func(req []byte) (resp []byte, compute sim.Duration)

// Server is an RPC server bound to an engine.
type Server struct {
	eng     *sim.Engine
	cfg     Config
	handler Handler
}

// NewServer registers an RPC handler.
func NewServer(eng *sim.Engine, cfg Config, h Handler) *Server {
	return &Server{eng: eng, cfg: cfg, handler: h}
}

// oneWay is the time for one message of n bytes to cross from user space
// to user space.
func (c Config) oneWay(n int) sim.Duration {
	return c.StackLatency +
		sim.Nanoseconds(float64(n)*c.CopyNsPerByte) +
		sim.BytesAt(n+66, c.BandwidthGbps) + // TCP/IP/Ethernet headers
		c.WakeupLatency
}

// Call performs a blocking RPC from the calling process.
func (s *Server) Call(p *sim.Process, req []byte) []byte {
	cfg := s.cfg
	p.Sleep(cfg.RPCOverhead)
	p.Sleep(cfg.oneWay(len(req)))
	resp, compute := s.handler(req)
	p.Sleep(compute)
	p.Sleep(cfg.oneWay(len(resp)))
	return resp
}
