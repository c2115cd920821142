// Package consistency implements the StRoM consistency kernel (§6.3):
// retrieving a remote data object and verifying its CRC64 checksum on the
// remote NIC, re-reading over PCIe on failure instead of burning a
// network round trip. Objects carry their ECMA CRC64 in the trailing 8
// bytes (the Pilaf scheme the paper mimics).
//
// The CRC unit runs in the kernel's data-flow pipeline at line rate, so
// verification adds only the pipeline latency — about 1 µs end to end
// versus up to 40% overhead for the software check (Fig. 9).
package consistency

import (
	"encoding/binary"
	"errors"

	"strom/internal/core"
	"strom/internal/cpu"
	"strom/internal/fpga"
	"strom/internal/hostmem"
	"strom/internal/sim"
)

// Response status codes (written after the object at the response
// address).
const (
	StatusOK        = 1
	StatusInconsist = 2 // retries exhausted, object still inconsistent
	StatusError     = 3
)

// Params configures one consistent read.
type Params struct {
	// ObjectAddress and ObjectSize locate the object (checksum
	// included in the trailing 8 bytes).
	ObjectAddress uint64
	ObjectSize    uint32
	// ResponseAddress is the requester-side destination; the status word
	// lands at ResponseAddress+ObjectSize.
	ResponseAddress uint64
	// MaxRetries bounds re-reads (0 means the kernel default).
	MaxRetries uint16
	// Deadline (absolute; zero: none) is the requester's bound and stays
	// off the wire: Read's RPC verb and its status poll both give up
	// then, so a crashed responder surfaces sim.ErrDeadlineExceeded
	// instead of hanging the caller — the shape the KV client's bounded
	// retry loop needs.
	Deadline sim.Time
}

// Encode serializes the parameter block.
func (p Params) Encode() []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out[0:8], p.ObjectAddress)
	binary.LittleEndian.PutUint32(out[8:12], p.ObjectSize)
	binary.LittleEndian.PutUint64(out[12:20], p.ResponseAddress)
	binary.LittleEndian.PutUint16(out[20:22], p.MaxRetries)
	return out
}

// DecodeParams parses a parameter block.
func DecodeParams(data []byte) (Params, error) {
	if len(data) < 24 {
		return Params{}, errors.New("consistency: short parameter block")
	}
	return Params{
		ObjectAddress:   binary.LittleEndian.Uint64(data[0:8]),
		ObjectSize:      binary.LittleEndian.Uint32(data[8:12]),
		ResponseAddress: binary.LittleEndian.Uint64(data[12:20]),
		MaxRetries:      binary.LittleEndian.Uint16(data[20:22]),
	}, nil
}

// Stats counts kernel activity.
type Stats struct {
	Invocations uint64
	Rereads     uint64
	Failures    uint64 // reads answered with an error, and malformed parameter blocks
}

// Kernel is the consistency kernel.
type Kernel struct {
	defaultRetries int
	stats          Stats
	free           []*read // recycled read records (see read)
}

// New creates a consistency kernel; maxRetries bounds re-reads (default
// 64 when 0).
func New(maxRetries int) *Kernel {
	if maxRetries <= 0 {
		maxRetries = 64
	}
	return &Kernel{defaultRetries: maxRetries}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "consistency" }

// Stats returns a snapshot of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Resources implements core.Kernel: dominated by the 64-bit CRC network.
func (k *Kernel) Resources() fpga.Resources {
	return fpga.Resources{LUTs: 7400, FFs: 9100, BRAMs: 4}
}

// Stream implements core.Kernel; the consistency kernel takes no payload.
func (k *Kernel) Stream(ctx *core.Context, qpn uint32, data []byte, last bool) {}

// Invoke implements core.Kernel. A malformed parameter block is a
// failed read: no response can be addressed.
func (k *Kernel) Invoke(ctx *core.Context, qpn uint32, raw []byte) {
	k.stats.Invocations++
	p, err := DecodeParams(raw)
	if err != nil {
		k.stats.Failures++
		ctx.Tracef("bad params: %v", err)
		return
	}
	retries := int(p.MaxRetries)
	if retries == 0 {
		retries = k.defaultRetries
	}
	var r *read
	if n := len(k.free); n > 0 {
		r, k.free = k.free[n-1], k.free[:n-1]
	} else {
		r = &read{k: k}
		r.onObj = r.verify
	}
	r.ctx, r.qpn, r.p, r.retriesLeft = ctx, qpn, p, retries
	r.attempt()
}

// read is one consistent read in flight, its DMA completion bound once.
// It waits on one DMA read at a time; respond returns it to the kernel's
// free list, and one whose completion a crash dropped is left to the GC.
type read struct {
	k           *Kernel
	ctx         *core.Context
	qpn         uint32
	p           Params
	retriesLeft int
	onObj       func([]byte, error)
}

// attempt reads the object once; verify checks it in the pipeline.
func (r *read) attempt() {
	r.ctx.State(r.qpn, "READ_OBJECT")
	r.ctx.DMARead(r.p.ObjectAddress, int(r.p.ObjectSize), r.onObj)
}

// verify checks the object's CRC64; on inconsistency it re-reads over
// PCIe (§6.3: "in case of inconsistency, the kernel re-reads the data
// object").
func (r *read) verify(obj []byte, err error) {
	k := r.k
	switch {
	case err != nil:
		k.stats.Failures++
		r.respond(nil, StatusError)
	case cpu.VerifyCRC64(obj):
		r.respond(obj, StatusOK)
	case r.retriesLeft <= 1:
		k.stats.Failures++
		r.respond(nil, StatusInconsist)
	default:
		r.retriesLeft--
		k.stats.Rereads++
		r.ctx.State(r.qpn, "REREAD")
		r.attempt()
	}
}

// respond writes the object (zeroed unless verified) and the status word
// back to the requester and recycles the read.
func (r *read) respond(obj []byte, status uint64) {
	r.ctx.State(r.qpn, "RESPOND")
	r.ctx.Respond(r.qpn, r.p.ResponseAddress, obj, int(r.p.ObjectSize), status)
	r.k.free = append(r.k.free, r)
}

// --- client helpers ---------------------------------------------------------

// Client errors.
var (
	ErrInconsistent = errors.New("consistency: object still inconsistent after retries")
	ErrRemote       = errors.New("consistency: remote kernel error")
)

// zeroStatus clears the status word before every read; never written.
var zeroStatus [8]byte

// Read performs a consistent read via the kernel: clear the status word,
// run the RPC, Poll.
func Read(p *sim.Process, nic *core.NIC, qpn uint32, rpcOp uint64, params Params) ([]byte, error) {
	if err := nic.Memory().WriteVirt(params.statusVA(), zeroStatus[:]); err != nil {
		return nil, err
	}
	if err := nic.Do(p, qpn, core.Verb{Op: core.OpRPC, RPCOp: rpcOp, Params: params.Encode(), Deadline: params.Deadline}); err != nil {
		return nil, err
	}
	return Poll(p, nic, params)
}

// statusVA is where the kernel's status word lands.
func (p Params) statusVA() hostmem.Addr {
	return hostmem.Addr(p.ResponseAddress + uint64(p.ObjectSize))
}

// Post is Read's first half: clear the status word, then post the RPC
// on qpn with done as its completion — the RPC's, not the kernel's
// response, which Poll waits for. A requester that posts other verbs in
// the same stage calls Post between them and Poll once all have
// completed. An error means nothing was posted and done is not called.
func Post(nic *core.NIC, qpn uint32, rpcOp uint64, params Params, done func(error)) error {
	if err := nic.Memory().WriteVirt(params.statusVA(), zeroStatus[:]); err != nil {
		return err
	}
	nic.Post(qpn, core.Verb{Op: core.OpRPC, RPCOp: rpcOp, Params: params.Encode(), Deadline: params.Deadline}, done)
	return nil
}

// Poll is Read's second half: poll for the status word until
// params.Deadline and return the verified object (checksum included).
func Poll(p *sim.Process, nic *core.NIC, params Params) ([]byte, error) {
	var timeout sim.Duration
	if params.Deadline != 0 {
		if timeout = params.Deadline.Sub(p.Now()); timeout <= 0 {
			timeout = 1 // already past the deadline: one poll iteration, then give up
		}
	}
	status, err := nic.Host().PollWord(p, nic.Memory(), params.statusVA(), func(w uint64) bool { return w != 0 }, timeout)
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusOK:
		return nic.Memory().ReadVirt(hostmem.Addr(params.ResponseAddress), int(params.ObjectSize))
	case StatusInconsist:
		return nil, ErrInconsistent
	default:
		return nil, ErrRemote
	}
}
