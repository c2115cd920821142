package core

import (
	"fmt"

	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/packet"
)

// This file implements the NIC's memory protection domain: the region
// table validated on the responder path (roce.AccessValidator), the
// kernel-side DMA sandbox, and the DMA-issue observer hook that lets the
// chaos checker assert invariant 9 (no DMA ever touches bytes outside a
// registered region with the right permission) independently of the
// validation logic itself.

// DebugFaults are deliberate protection bugs for checker validation: the
// chaos layer arms one and asserts the corresponding invariant trips.
type DebugFaults struct {
	// SkipMRValidation disables all MR-table checks (responder RETH
	// validation and the kernel DMA sandbox) while leaving the DMA-issue
	// observer armed, so unchecked DMAs reach the invariant checker.
	SkipMRValidation bool
}

// SetDebugFaults arms deliberate protection bugs.
func (n *NIC) SetDebugFaults(dbg DebugFaults) { n.dbg = dbg }

// RegisterMemoryFlags populates the TLB for an already-allocated buffer
// and registers [buf.Base(), +buf.Size()) as a memory region with the
// given access rights. AccessLocal is always granted — the host owns its
// memory regardless of what remote peers and kernels may do. Registering
// the same buffer again replaces its region (and rkey); the TLB mappings
// are idempotent.
func (n *NIC) RegisterMemoryFlags(buf *hostmem.Buffer, flags mr.Access) error {
	pas, err := buf.PhysicalPages()
	if err != nil {
		return err
	}
	for i, pa := range pas {
		va := buf.Base() + hostmem.Addr(i*hostmem.HugePageSize)
		if err := n.tlb.Populate(va, pa); err != nil {
			return err
		}
	}
	base := uint64(buf.Base())
	if old, ok := n.regions[base]; ok {
		if err := n.mrt.Deregister(old); err != nil {
			return err
		}
		delete(n.regions, base)
	}
	r, err := n.mrt.Register(base, uint64(buf.Size()), flags|mr.AccessLocal)
	if err != nil {
		return err
	}
	n.regions[base] = r
	return nil
}

// AllocBufferFlags is AllocBuffer with explicit region access rights.
func (n *NIC) AllocBufferFlags(size int, flags mr.Access) (*hostmem.Buffer, error) {
	buf, err := n.mem.Allocate(size)
	if err != nil {
		return nil, err
	}
	if err := n.RegisterMemoryFlags(buf, flags); err != nil {
		return nil, err
	}
	return buf, nil
}

// DeregisterMemory removes a buffer's memory region: its rkey dies and
// remote or kernel access to the range faults. The TLB mappings stay (the
// pages remain pinned until Buffer.Free) — protection is the MR table's
// job, translation the TLB's.
func (n *NIC) DeregisterMemory(buf *hostmem.Buffer) error {
	base := uint64(buf.Base())
	r, ok := n.regions[base]
	if !ok {
		return fmt.Errorf("%w: VA %#x", ErrNotRegistered, base)
	}
	if err := n.mrt.Deregister(r); err != nil {
		return err
	}
	delete(n.regions, base)
	return nil
}

// MRTable exposes the NIC's memory-region table (stats, chaos guards).
func (n *NIC) MRTable() *mr.Table { return n.mrt }

// RegionFor returns the registered region of the buffer starting at base,
// or nil. Use Region.RKey to obtain the key a peer must present.
func (n *NIC) RegionFor(base uint64) *mr.Region { return n.regions[base] }

// SetRemoteRKey installs the default rkey for a QP's posted operations
// (the application-level rkey exchange; see roce.Stack.SetRemoteRKey).
func (n *NIC) SetRemoteRKey(qpn, rkey uint32) error { return n.stack.SetRemoteRKey(qpn, rkey) }

// SetDMAObserver installs a hook called at every DMA command issue with
// the access class the command should have been validated for. It fires
// even when SkipMRValidation is armed — that is the point: the observer
// watches what the DMA engine is told to do, not what validation claims.
func (n *NIC) SetDMAObserver(fn func(need mr.Access, va uint64, nbytes int)) { n.dmaObs = fn }

func (n *NIC) observeDMA(need mr.Access, va uint64, nbytes int) {
	if n.dmaObs != nil {
		n.dmaObs(need, va, nbytes)
	}
}

// ValidateRemote implements roce.AccessValidator: every RETH-bearing
// WRITE or READ request is vetted against the MR table before the stack
// touches the handler. A returned fault NAKs the request with
// SynNAKRemoteAccess and no DMA is issued.
func (n *NIC) ValidateRemote(qpn uint32, op packet.Opcode, reth packet.RETH) error {
	if n.dbg.SkipMRValidation {
		return nil
	}
	need := mr.AccessRemoteWrite
	if op == packet.OpReadRequest {
		need = mr.AccessRemoteRead
	}
	if f := n.mrt.CheckRemote(reth.RKey, reth.VirtualAddress, uint64(reth.DMALength), need); f != nil {
		n.logf("mr-reject", "nic: qp%d %v rejected: %v", qpn, op, f)
		return f
	}
	return nil
}

// checkKernelDMA is the kernel sandbox: every kernel-issued DMA command
// must land in a region granting AccessKernel. Negative lengths convert
// to huge uint64s and fault as wrapping ranges.
func (n *NIC) checkKernelDMA(va uint64, nbytes int) error {
	if n.dbg.SkipMRValidation {
		return nil
	}
	if f := n.mrt.CheckVA(va, uint64(nbytes), mr.AccessKernel); f != nil {
		n.stats.KernelMRFaults++
		n.logf("kernel-mr-fault", "nic: kernel DMA rejected: %v", f)
		return f
	}
	return nil
}
