package kvserve

import (
	"fmt"

	"strom/internal/hostmem"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/testrig"
)

// Server is one storage node: the primary table for its own shard and
// the backup table for its predecessor's, carved out of the machine's
// registered buffer at fixed offsets, plus an optional "blast" region
// incast aggressors may hammer without touching KV state. The server
// CPU never sees a data-path operation — clients reach the tables with
// one-sided verbs — so all it runs is the heartbeat the failure
// detector watches.
type Server struct {
	M     *testrig.NetMachine
	Shard int // primary shard id == server index

	PrimaryVA    hostmem.Addr // table for shard Shard
	BackupVA     hostmem.Addr // table for shard (Shard-1+S) mod S
	PrimaryExtVA hostmem.Addr // extent arena for shard Shard
	BackupExtVA  hostmem.Addr // extent arena for shard (Shard-1+S) mod S
	BlastVA      hostmem.Addr // scratch region for incast traffic (0 if none)
	BlastLen     int

	heartbeats uint64
	serving    float64
}

// NewServer lays the two shard tables, their two extent arenas, and a
// blast region of blastBytes into the machine's buffer.
func NewServer(m *testrig.NetMachine, shard int, lay Layout, blastBytes int) (*Server, error) {
	need := 2*lay.ShardBytes() + 2*lay.ArenaBytes() + blastBytes
	if m.Buf.Size() < need {
		return nil, fmt.Errorf("kvserve: m%d buffer %d B < %d B needed for two shard tables and arenas", m.Index, m.Buf.Size(), need)
	}
	base := m.Buf.Base()
	s := &Server{
		M:            m,
		Shard:        shard,
		PrimaryVA:    base,
		BackupVA:     base + hostmem.Addr(lay.ShardBytes()),
		PrimaryExtVA: base + hostmem.Addr(2*lay.ShardBytes()),
		BackupExtVA:  base + hostmem.Addr(2*lay.ShardBytes()+lay.ArenaBytes()),
	}
	if blastBytes > 0 {
		s.BlastVA = base + hostmem.Addr(2*lay.ShardBytes()+2*lay.ArenaBytes())
		s.BlastLen = blastBytes
	}
	return s, nil
}

// TableFor returns the base address of this server's table for the
// given shard, or 0 if the server hosts no replica of it.
func (s *Server) TableFor(lay Layout, shard int) hostmem.Addr {
	switch {
	case shard == s.Shard:
		return s.PrimaryVA
	case lay.BackupServer(shard) == s.Shard:
		return s.BackupVA
	}
	return 0
}

// ArenaFor returns the base address of this server's extent arena for
// the given shard, or 0 if the server hosts no replica of it.
func (s *Server) ArenaFor(lay Layout, shard int) hostmem.Addr {
	switch {
	case shard == s.Shard:
		return s.PrimaryExtVA
	case lay.BackupServer(shard) == s.Shard:
		return s.BackupExtVA
	}
	return 0
}

// StartHeartbeat begins the liveness signal: a daemon probe that bumps
// the heartbeat counter every heartbeatEvery, only while the NIC is up. A crash freezes the
// counter while kv_serving stays asserted, which is exactly the
// telemetry shape the no-progress watchdog rule fires on; after the
// restart the counter moves again and the alert resolves.
func (s *Server) StartHeartbeat() {
	s.serving = 1
	telemetry.Probe(s.M.Eng, heartbeatEvery, func(now sim.Time) {
		if !s.M.NIC.Crashed() {
			s.heartbeats++
		}
	})
}

// Health is the server's scrape function for the JSONL recorder.
func (s *Server) Health() (map[string]uint64, map[string]float64) {
	return map[string]uint64{"kv_heartbeats": s.heartbeats},
		map[string]float64{"kv_serving": s.serving}
}

// ObjectName returns the server's alert/stream object name; the
// failover controller parses the shard id back out of it.
func (s *Server) ObjectName() string { return fmt.Sprintf("kvsrv:%d", s.Shard) }
