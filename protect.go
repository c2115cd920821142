package strom

import (
	"strom/internal/mr"
	"strom/internal/roce"
)

// Memory protection domains: every machine's NIC validates each remote
// access and each kernel DMA against a table of registered memory
// regions. AllocBuffer grants full access (the pre-protection
// behaviour); AllocBufferFlags and RegisterMemory scope a region down to
// exactly the rights a peer or kernel should have. A peer proves its
// right with the region's rkey — fetch it with Machine.RegionFor and
// install it on the connection with QueuePair.SetRemoteKey (the
// application-level key exchange). A machine restart rotates every
// rkey, so keys must be re-fetched after Machine.Restart, exactly like
// a real RNIC invalidating its MRs on reset.

// Re-exported protection types.
type (
	// MemoryRegion is a registered protection domain: base, size, access
	// flags and the rkey remote peers must present.
	MemoryRegion = mr.Region
	// MemoryAccess is a region's access-rights bitmask.
	MemoryAccess = mr.Access
)

// Access rights for RegisterMemory and AllocBufferFlags.
const (
	// AccessRemoteRead lets remote peers READ the region.
	AccessRemoteRead = mr.AccessRemoteRead
	// AccessRemoteWrite lets remote peers WRITE the region.
	AccessRemoteWrite = mr.AccessRemoteWrite
	// AccessKernel lets NIC kernels issue DMA into the region.
	AccessKernel = mr.AccessKernel
	// AccessLocal marks host-initiated access; always granted.
	AccessLocal = mr.AccessLocal
	// AccessFull grants everything (AllocBuffer's default).
	AccessFull = mr.AccessFull
)

// Protection errors.
var (
	// ErrRemoteAccess reports a request NAK'd by the responder's memory
	// protection (bad/stale rkey, bounds, permission, unregistered VA).
	// Transport-fatal: wrapped in ErrQPError; reconnect and re-fetch the
	// peer's rkey.
	ErrRemoteAccess = roce.ErrRemoteAccess
	// ErrMemoryAccess is the local form: every kernel-DMA sandbox fault
	// matches it with errors.Is.
	ErrMemoryAccess = mr.ErrAccess
)

// AllocBufferFlags allocates pinned host memory whose region grants
// exactly the given access rights — e.g. AccessRemoteRead for a buffer
// peers may READ but never WRITE.
func (m *Machine) AllocBufferFlags(size int, flags MemoryAccess) (*Buffer, error) {
	return m.nic.AllocBufferFlags(size, flags)
}

// RegisterMemory re-registers an existing buffer with new access
// rights, replacing its region and issuing a fresh rkey (the old key
// dies). Use it to scope down or revoke what a peer was granted.
func (m *Machine) RegisterMemory(buf *Buffer, flags MemoryAccess) error {
	return m.nic.RegisterMemoryFlags(buf, flags)
}

// DeregisterMemory removes a buffer's region: its rkey dies and every
// remote or kernel access to the range is rejected. Host access (CPU
// loads/stores) is unaffected.
func (m *Machine) DeregisterMemory(buf *Buffer) error {
	return m.nic.DeregisterMemory(buf)
}

// RegionFor returns the registered region backing buf (nil if
// deregistered). Region.RKey is the key a peer must present; it changes
// on every re-registration and machine restart.
func (m *Machine) RegionFor(buf *Buffer) *MemoryRegion {
	return m.nic.RegionFor(uint64(buf.Base()))
}

// SetRemoteKey installs the default rkey stamped on operations A posts
// toward B — the receiving end of the application-level key exchange.
// It survives Reconnect, but a restart of B rotates B's keys and the
// key must be exchanged again.
func (qp *QueuePair) SetRemoteKey(rkey uint32) error {
	return qp.A.nic.SetRemoteRKey(qp.QPNA, rkey)
}

// RemoteKey returns the rkey installed with SetRemoteKey (0 if none).
func (qp *QueuePair) RemoteKey() uint32 {
	return qp.A.nic.Stack().RemoteRKey(qp.QPNA)
}
