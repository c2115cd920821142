package core

import (
	"fmt"

	"strom/internal/pcie"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Register identifies one status/performance register of the Controller
// (§4.3: "the host can also retrieve status and performance metrics").
// The driver maps these through the PCIe BAR (/dev/roce in the paper);
// here they are read through the modelled MMIO path.
type Register uint32

// Register map.
const (
	RegTxPackets Register = iota
	RegRxPackets
	RegRxDiscarded
	RegRxDuplicates
	RegRxOutOfOrder
	RegAcksSent
	RegNaksSent
	RegAcksReceived
	RegNaksReceived
	RegRetransmissions
	RegTimeouts
	RegDMAReadCommands
	RegDMAWriteCommands
	RegDMAReadBytes
	RegDMAWriteBytes
	RegDMASplitSegments
	RegTLBLookups
	RegTLBSplits
	RegTLBMisses
	RegDoorbells
	RegRPCsDispatched
	RegRPCsFallback
	RegRPCsUnmatched
	RegStreamSegments
	RegKernelDMAReads
	RegKernelDMAWrites
	RegKernelRDMAWrites
	RegTxBytes
	RegRxBytes
	RegDupReadCacheHits
	RegDupReadCacheMisses
	registerCount
)

// noRegister is the Register of a counter the Controller does not serve.
const noRegister = registerCount

// counter is one row of the NIC's counter table: one counter and every
// name it is read under. The Controller serves it as register reg (its
// mnemonic the register's name), Health reports it under its health
// key, and the NIC's telemetry registry mirrors it as metric, labelled
// nic=<IP> for a roce_* metric and nic=<machine name> otherwise. An
// empty name (noRegister) leaves the counter out of that view.
type counter struct {
	reg      Register
	mnemonic string
	health   string
	metric   string
	read     func(*counts) uint64
}

// counts is what the counter table reads: each component's counters,
// copied once per view call.
type counts struct {
	roce                             roce.Stats
	dma                              pcie.Stats
	nic                              NICStats
	tlbLookups, tlbSplits, tlbMisses uint64
}

// nicCounters is the NIC's counter table, the one place a counter is
// named: adding a counter is adding a row.
var nicCounters = [...]counter{
	{RegTxPackets, "TX_PACKETS", "out_frames", "roce_tx_packets", func(c *counts) uint64 { return c.roce.TxPackets }},
	{RegTxBytes, "TX_BYTES", "out_bytes", "roce_tx_bytes", func(c *counts) uint64 { return c.roce.TxBytes }},
	{RegRxPackets, "RX_PACKETS", "in_frames", "roce_rx_packets", func(c *counts) uint64 { return c.roce.RxPackets }},
	{RegRxBytes, "RX_BYTES", "in_bytes", "roce_rx_bytes", func(c *counts) uint64 { return c.roce.RxBytes }},
	// Undecodable frames (bad ICRC after wire corruption): the FCS-Err
	// analogue.
	{RegRxDiscarded, "RX_DISCARDED", "fcs_err", "roce_rx_discarded", func(c *counts) uint64 { return c.roce.RxDiscarded }},
	{RegRxDuplicates, "RX_DUPLICATES", "rcv_dup", "roce_rx_duplicates", func(c *counts) uint64 { return c.roce.RxDuplicates }},
	{RegRxOutOfOrder, "RX_OUT_OF_ORDER", "rcv_ooo", "roce_rx_out_of_order", func(c *counts) uint64 { return c.roce.RxOutOfOrder }},
	{RegAcksSent, "ACKS_SENT", "acks_tx", "roce_acks_sent", func(c *counts) uint64 { return c.roce.AcksSent }},
	{RegNaksSent, "NAKS_SENT", "naks_tx", "roce_naks_sent", func(c *counts) uint64 { return c.roce.NaksSent }},
	{noRegister, "", "remote_access_naks", "roce_nak_remote_access", func(c *counts) uint64 { return c.roce.NaksRemoteAccess }},
	{RegAcksReceived, "ACKS_RECEIVED", "acks_rx", "roce_acks_received", func(c *counts) uint64 { return c.roce.AcksReceived }},
	{RegNaksReceived, "NAKS_RECEIVED", "naks_rx", "roce_naks_received", func(c *counts) uint64 { return c.roce.NaksReceived }},
	{RegRetransmissions, "RETRANSMISSIONS", "retransmissions", "roce_retransmissions", func(c *counts) uint64 { return c.roce.Retransmissions }},
	{RegTimeouts, "TIMEOUTS", "timeouts", "roce_timeouts", func(c *counts) uint64 { return c.roce.Timeouts }},
	{RegDupReadCacheHits, "DUP_READ_CACHE_HITS", "", "roce_dup_read_cache_hits", func(c *counts) uint64 { return c.roce.DupReadCacheHits }},
	// A duplicate READ outside the recent-read table cannot re-prove its
	// payload: the Stomped-CRC analogue (internal/telemetry/export).
	{RegDupReadCacheMisses, "DUP_READ_CACHE_MISSES", "stomped_crc", "roce_dup_read_cache_misses", func(c *counts) uint64 { return c.roce.DupReadCacheMiss }},
	{noRegister, "", "qp_errors", "roce_qp_errors", func(c *counts) uint64 { return c.roce.QPErrors }},
	{noRegister, "", "qp_resets", "roce_qp_resets", func(c *counts) uint64 { return c.roce.QPResets }},
	{noRegister, "", "deadline_expired", "roce_deadline_expired", func(c *counts) uint64 { return c.roce.DeadlineExpired }},
	{noRegister, "", "ops_posted", "roce_ops_posted", func(c *counts) uint64 { return c.roce.OpsPosted }},
	{noRegister, "", "ops_completed", "roce_ops_completed", func(c *counts) uint64 { return c.roce.OpsCompleted }},
	{noRegister, "", "ecn_marked_rx", "roce_ecn_marked_rx", func(c *counts) uint64 { return c.roce.EcnMarkedRx }},
	{noRegister, "", "cnps_tx", "roce_cnps_sent", func(c *counts) uint64 { return c.roce.CnpsSent }},
	{noRegister, "", "cnps_rx", "roce_cnps_received", func(c *counts) uint64 { return c.roce.CnpsReceived }},
	{noRegister, "", "paced_frames", "roce_paced_frames", func(c *counts) uint64 { return c.roce.PacedFrames }},

	{RegDMAReadCommands, "DMA_READ_COMMANDS", "", "pcie_dma_read_commands", func(c *counts) uint64 { return c.dma.ReadCommands }},
	{RegDMAWriteCommands, "DMA_WRITE_COMMANDS", "", "pcie_dma_write_commands", func(c *counts) uint64 { return c.dma.WriteCommands }},
	{RegDMAReadBytes, "DMA_READ_BYTES", "", "pcie_dma_read_bytes", func(c *counts) uint64 { return c.dma.ReadBytes }},
	{RegDMAWriteBytes, "DMA_WRITE_BYTES", "", "pcie_dma_write_bytes", func(c *counts) uint64 { return c.dma.WriteBytes }},
	{RegDMASplitSegments, "DMA_SPLIT_SEGMENTS", "", "pcie_dma_split_segments", func(c *counts) uint64 { return c.dma.SplitSegments }},
	{noRegister, "", "dma_stalled", "pcie_dma_stalled_commands", func(c *counts) uint64 { return c.dma.StalledCmds }},
	{noRegister, "", "", "pcie_dma_stall_ps", func(c *counts) uint64 { return uint64(c.dma.StallTime) }},

	{RegTLBLookups, "TLB_LOOKUPS", "", "nic_tlb_lookups", func(c *counts) uint64 { return c.tlbLookups }},
	{RegTLBSplits, "TLB_SPLITS", "", "nic_tlb_splits", func(c *counts) uint64 { return c.tlbSplits }},
	{RegTLBMisses, "TLB_MISSES", "", "nic_tlb_misses", func(c *counts) uint64 { return c.tlbMisses }},

	{RegDoorbells, "DOORBELLS", "", "nic_doorbells", func(c *counts) uint64 { return c.nic.Doorbells }},
	{RegRPCsDispatched, "RPCS_DISPATCHED", "", "nic_rpcs_dispatched", func(c *counts) uint64 { return c.nic.RPCsDispatched }},
	{RegRPCsFallback, "RPCS_FALLBACK", "", "nic_rpcs_fallback", func(c *counts) uint64 { return c.nic.RPCsFallback }},
	{RegRPCsUnmatched, "RPCS_UNMATCHED", "", "nic_rpcs_unmatched", func(c *counts) uint64 { return c.nic.RPCsUnmatched }},
	{RegStreamSegments, "STREAM_SEGMENTS", "", "nic_stream_segments", func(c *counts) uint64 { return c.nic.StreamSegments }},
	{RegKernelDMAReads, "KERNEL_DMA_READS", "", "nic_kernel_dma_reads", func(c *counts) uint64 { return c.nic.KernelDMAReads }},
	{RegKernelDMAWrites, "KERNEL_DMA_WRITES", "", "nic_kernel_dma_writes", func(c *counts) uint64 { return c.nic.KernelDMAWrites }},
	{RegKernelRDMAWrites, "KERNEL_RDMA_WRITES", "", "nic_kernel_rdma_writes", func(c *counts) uint64 { return c.nic.KernelRDMAWrites }},
	{noRegister, "", "kernel_faults", "kernel_mr_fault", func(c *counts) uint64 { return c.nic.KernelMRFaults }},
	{noRegister, "", "kernel_aborts", "", func(c *counts) uint64 { return c.nic.KernelAborts }},
	// Frames arriving while the machine is crashed: the InDiscards
	// analogue.
	{noRegister, "", "in_discards", "", func(c *counts) uint64 { return c.nic.FramesDroppedDown }},
}

// registerRows indexes nicCounters by Register.
var registerRows = func() (rows [registerCount]int) {
	for i, c := range nicCounters {
		if c.reg != noRegister {
			rows[c.reg] = i
		}
	}
	return rows
}()

// readCounts copies the NIC's counters into s, a snapshot the calling
// view owns and reuses, and returns it.
func (n *NIC) readCounts(s *counts) *counts {
	*s = counts{
		roce: n.stack.Stats(), dma: n.dma.Stats(), nic: n.stats,
		tlbLookups: n.tlb.Lookups, tlbSplits: n.tlb.Splits, tlbMisses: n.tlb.Misses,
	}
	return s
}

// String returns the register mnemonic.
func (r Register) String() string {
	if r < registerCount {
		return nicCounters[registerRows[r]].mnemonic
	}
	return fmt.Sprintf("REG(%d)", uint32(r))
}

// Controller is the host-facing register interface of the NIC.
type Controller struct {
	nic    *NIC
	counts counts
}

// Controller returns the NIC's register interface.
func (n *NIC) Controller() *Controller { return &Controller{nic: n} }

// value reads a register combinationally (device side, no timing).
func (c *Controller) value(r Register) (uint64, error) {
	if r >= registerCount {
		return 0, fmt.Errorf("strom: unknown register %d", uint32(r))
	}
	return nicCounters[registerRows[r]].read(c.nic.readCounts(&c.counts)), nil
}

// Read performs a timed MMIO register read from host software, blocking
// the calling process for the PCIe round trip.
func (c *Controller) Read(p *sim.Process, r Register) (uint64, error) {
	if _, err := c.value(r); err != nil {
		return 0, err
	}
	done := &sim.Completion[uint64]{}
	c.nic.dma.MMIORead(func() uint64 {
		v, _ := c.value(r)
		return v
	}, done.Complete)
	return done.Wait(p)
}

// Snapshot returns all registers (device-side, untimed — for tests and
// reports).
func (c *Controller) Snapshot() map[Register]uint64 {
	s := c.nic.readCounts(&c.counts)
	out := make(map[Register]uint64, registerCount)
	for _, row := range nicCounters {
		if row.reg != noRegister {
			out[row.reg] = row.read(s)
		}
	}
	return out
}
