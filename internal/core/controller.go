package core

import (
	"fmt"

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

// String returns the register mnemonic.
func (r Register) String() string {
	names := [...]string{
		"TX_PACKETS", "RX_PACKETS", "RX_DISCARDED", "RX_DUPLICATES",
		"RX_OUT_OF_ORDER", "ACKS_SENT", "NAKS_SENT", "ACKS_RECEIVED",
		"NAKS_RECEIVED", "RETRANSMISSIONS", "TIMEOUTS",
		"DMA_READ_COMMANDS", "DMA_WRITE_COMMANDS", "DMA_READ_BYTES",
		"DMA_WRITE_BYTES", "DMA_SPLIT_SEGMENTS",
		"TLB_LOOKUPS", "TLB_SPLITS", "TLB_MISSES",
		"DOORBELLS", "RPCS_DISPATCHED", "RPCS_FALLBACK", "RPCS_UNMATCHED",
		"STREAM_SEGMENTS", "KERNEL_DMA_READS", "KERNEL_DMA_WRITES",
		"KERNEL_RDMA_WRITES",
		"TX_BYTES", "RX_BYTES", "DUP_READ_CACHE_HITS", "DUP_READ_CACHE_MISSES",
	}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("REG(%d)", uint32(r))
}

// Controller is the host-facing register interface of the NIC.
type Controller struct {
	nic *NIC
}

// Controller returns the NIC's register interface.
func (n *NIC) Controller() *Controller { return &Controller{nic: n} }

// value reads a register combinationally (device side, no timing).
func (c *Controller) value(r Register) (uint64, error) {
	st := c.nic.stack.Stats()
	dma := c.nic.dma.Stats()
	switch r {
	case RegTxPackets:
		return st.TxPackets, nil
	case RegRxPackets:
		return st.RxPackets, nil
	case RegRxDiscarded:
		return st.RxDiscarded, nil
	case RegRxDuplicates:
		return st.RxDuplicates, nil
	case RegRxOutOfOrder:
		return st.RxOutOfOrder, nil
	case RegAcksSent:
		return st.AcksSent, nil
	case RegNaksSent:
		return st.NaksSent, nil
	case RegAcksReceived:
		return st.AcksReceived, nil
	case RegNaksReceived:
		return st.NaksReceived, nil
	case RegRetransmissions:
		return st.Retransmissions, nil
	case RegTimeouts:
		return st.Timeouts, nil
	case RegDMAReadCommands:
		return dma.ReadCommands, nil
	case RegDMAWriteCommands:
		return dma.WriteCommands, nil
	case RegDMAReadBytes:
		return dma.ReadBytes, nil
	case RegDMAWriteBytes:
		return dma.WriteBytes, nil
	case RegDMASplitSegments:
		return dma.SplitSegments, nil
	case RegTLBLookups:
		return c.nic.tlb.Lookups, nil
	case RegTLBSplits:
		return c.nic.tlb.Splits, nil
	case RegTLBMisses:
		return c.nic.tlb.Misses, nil
	case RegDoorbells:
		return c.nic.stats.Doorbells, nil
	case RegRPCsDispatched:
		return c.nic.stats.RPCsDispatched, nil
	case RegRPCsFallback:
		return c.nic.stats.RPCsFallback, nil
	case RegRPCsUnmatched:
		return c.nic.stats.RPCsUnmatched, nil
	case RegStreamSegments:
		return c.nic.stats.StreamSegments, nil
	case RegKernelDMAReads:
		return c.nic.stats.KernelDMAReads, nil
	case RegKernelDMAWrites:
		return c.nic.stats.KernelDMAWrites, nil
	case RegKernelRDMAWrites:
		return c.nic.stats.KernelRDMAWrites, nil
	case RegTxBytes:
		return st.TxBytes, nil
	case RegRxBytes:
		return st.RxBytes, nil
	case RegDupReadCacheHits:
		return st.DupReadCacheHits, nil
	case RegDupReadCacheMisses:
		return st.DupReadCacheMiss, nil
	}
	return 0, fmt.Errorf("strom: unknown register %d", uint32(r))
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
	out := make(map[Register]uint64, registerCount)
	for r := Register(0); r < registerCount; r++ {
		v, err := c.value(r)
		if err == nil {
			out[r] = v
		}
	}
	return out
}
