package traversal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/hostmem"
	"strom/internal/sim"
)

// Lookup errors.
var (
	ErrNotFound = errors.New("traversal: key not found")
	ErrRemote   = errors.New("traversal: remote kernel error")
	// ErrFault reports a traversal terminated by the remote NIC's memory
	// sandbox: the pointer chase left registered memory (StatusFault).
	ErrFault = errors.New("traversal: pointer chase left registered memory")
)

// zeroStatus clears the status word before every lookup; never written.
var zeroStatus [8]byte

// Lookup issues a traversal RPC from the calling process and polls local
// memory for the response: the value followed by the 8 B status word.
// params.ResponseAddress must point into a buffer registered with nic.
func Lookup(p *sim.Process, nic *core.NIC, qpn uint32, rpcOp uint64, params Params) ([]byte, error) {
	statusVA := hostmem.Addr(params.ResponseAddress + uint64(params.ValueSize))
	// Clear the status word before invoking.
	if err := nic.Memory().WriteVirt(statusVA, zeroStatus[:]); err != nil {
		return nil, err
	}
	var block [40]byte
	params.put(block[:])
	if err := nic.RPCSync(p, qpn, rpcOp, block[:]); err != nil {
		return nil, err
	}
	status, err := nic.Host().PollWord(p, nic.Memory(), statusVA, func(w uint64) bool { return w != 0 }, 0)
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusFound:
		return nic.Memory().ReadVirt(hostmem.Addr(params.ResponseAddress), int(params.ValueSize))
	case StatusNotFound:
		return nil, ErrNotFound
	case StatusFault:
		return nil, ErrFault
	default:
		return nil, fmt.Errorf("%w (status %d)", ErrRemote, status)
	}
}

// Reference walks the same traversal host-side (untimed), serving as the
// oracle for property tests: it must agree with the kernel for any
// structure and parameter set.
func Reference(mem *hostmem.Memory, p Params, maxHops int) ([]byte, uint64) {
	if maxHops <= 0 {
		maxHops = 1024
	}
	addr := p.RemoteAddress
	for hop := 0; hop < maxHops && addr != 0; hop++ {
		elem, err := mem.ReadVirt(hostmem.Addr(addr), ElementSize)
		if err != nil {
			return nil, StatusError
		}
		matchIdx := -1
		for i := 0; i < slots-1; i++ {
			if p.KeyMask&(1<<i) == 0 {
				continue
			}
			if p.PredicateOp.Eval(binary.LittleEndian.Uint64(elem[4*i:4*i+8]), p.Key) {
				matchIdx = i
				break
			}
		}
		if matchIdx >= 0 {
			vpos := int(p.ValuePtrPosition)
			if p.IsRelativePosition {
				vpos += matchIdx
			}
			if vpos < 0 || vpos >= slots-1 {
				return nil, StatusError
			}
			valuePtr := binary.LittleEndian.Uint64(elem[4*vpos : 4*vpos+8])
			val, err := mem.ReadVirt(hostmem.Addr(valuePtr), int(p.ValueSize))
			if err != nil {
				return nil, StatusError
			}
			return val, StatusFound
		}
		if !p.NextElementPtrValid {
			return nil, StatusNotFound
		}
		npos := int(p.NextElementPtrPosition)
		if npos < 0 || npos >= slots-1 {
			return nil, StatusError
		}
		addr = binary.LittleEndian.Uint64(elem[4*npos : 4*npos+8])
	}
	return nil, StatusNotFound
}
