package tcprpc

import (
	"testing"

	"strom/internal/sim"
)

// roundTrip times one Call of a server that answers respLen bytes after
// compute.
func roundTrip(cfg Config, reqLen, respLen int, compute sim.Duration) sim.Duration {
	eng := sim.NewEngine(1)
	srv := NewServer(eng, cfg, func([]byte) ([]byte, sim.Duration) { return make([]byte, respLen), compute })
	eng.Go("client", func(p *sim.Process) { srv.Call(p, make([]byte, reqLen)) })
	return sim.Duration(eng.Run())
}

func TestRoundTripFloor(t *testing.T) {
	cfg := Default()
	// Small-payload RPC: low-teens of microseconds — an order of
	// magnitude above RDMA's ~2.5 us but far below WAN latencies.
	rt := roundTrip(cfg, 64, 64, 0)
	if us := rt.Microseconds(); us < 10 || us > 20 {
		t.Errorf("64B round trip = %.1f us", us)
	}
}

func TestPayloadSensitivity(t *testing.T) {
	cfg := Default()
	small := roundTrip(cfg, 64, 256, 0)
	large := roundTrip(cfg, 64, 4096, 0)
	// Fig. 8: the TCP RPC grows noticeably beyond 256 B responses.
	growth := (large - small).Microseconds()
	if growth < 5 || growth > 15 {
		t.Errorf("256B -> 4KB growth = %.1f us", growth)
	}
}

func TestComputeFlatness(t *testing.T) {
	// Fig. 7: traversal on the CPU is nearly free compared to the RPC
	// floor — latency is flat in the list length.
	cfg := Default()
	l4 := roundTrip(cfg, 64, 64, 4*80*sim.Nanosecond)
	l32 := roundTrip(cfg, 64, 64, 32*80*sim.Nanosecond)
	if diff := (l32 - l4).Microseconds(); diff > 3 {
		t.Errorf("length sensitivity = %.2f us, should be tiny", diff)
	}
}

func TestCallChargesTimeAndRunsHandler(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Default()
	srv := NewServer(eng, cfg, func(req []byte) ([]byte, sim.Duration) {
		resp := append([]byte("resp:"), req...)
		return resp, 500 * sim.Nanosecond
	})
	var got []byte
	var took sim.Duration
	eng.Go("client", func(p *sim.Process) {
		start := p.Now()
		got = srv.Call(p, []byte("ping"))
		took = p.Now().Sub(start)
	})
	eng.Run()
	if string(got) != "resp:ping" {
		t.Errorf("got %q", got)
	}
	want := cfg.RPCOverhead + cfg.oneWay(4) + 500*sim.Nanosecond + cfg.oneWay(9)
	if took != want {
		t.Errorf("took %v, want %v", took, want)
	}
}

func TestSlowerThanRDMAFloor(t *testing.T) {
	// The motivation for StRoM: even a no-work TCP RPC costs several
	// RDMA round trips.
	cfg := Default()
	if roundTrip(cfg, 64, 64, 0) < 2*sim.Microsecond*3 {
		t.Error("TCP RPC implausibly fast")
	}
}
