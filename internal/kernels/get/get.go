// Package get implements the example GET kernel of Listings 2–4: a
// hash-table lookup offloaded to the remote NIC, structured as the same
// four dataflow stages as the paper's HLS code — fetch_ht_entry,
// parse_ht_entry, merge_read_cmds, split_read_data — connected by FIFOs
// and pipelined with initiation interval 1.
//
// Like the paper's example it assumes the hash-table entry contains a
// matching key ("for simplicity ... we assume that there is always
// exactly one matching key", §5.2): with no match it falls back to bucket
// 0, exactly as the listing's matchIdx selection does. The entry layout
// is the Pilaf-style 3-bucket entry built by internal/kvstore.
//
// As a completion signal for polling clients, the kernel appends an 8 B
// status word after the value at the response address (a convenience the
// HLS listing leaves to the surrounding application).
package get

import (
	"encoding/binary"
	"errors"

	"strom/internal/core"
	"strom/internal/fpga"
)

// Bucket layout constants (must match internal/kvstore).
const (
	buckets      = 3
	bucketStride = 20
	entrySize    = 64
)

// StatusDone is written after the value on completion.
const StatusDone = 1

// StatusError reports a failed DMA.
const StatusError = 3

// Params is the GET kernel's parameter block (Listing 3's getParams):
// the hash-table entry address (the client computes the hash), the lookup
// key, and the requester-side target address.
type Params struct {
	Address    uint64 // hash table entry address
	Key        uint64 // lookup key
	TargetAddr uint64 // requester address for the value
}

// Encode serializes the parameter block.
func (p Params) Encode() []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out[0:8], p.Address)
	binary.LittleEndian.PutUint64(out[8:16], p.Key)
	binary.LittleEndian.PutUint64(out[16:24], p.TargetAddr)
	return out
}

// DecodeParams parses a parameter block.
func DecodeParams(data []byte) (Params, error) {
	if len(data) < 24 {
		return Params{}, errors.New("get: short parameter block")
	}
	return Params{
		Address:    binary.LittleEndian.Uint64(data[0:8]),
		Key:        binary.LittleEndian.Uint64(data[8:16]),
		TargetAddr: binary.LittleEndian.Uint64(data[16:24]),
	}, nil
}

// internalMeta is what fetch_ht_entry forwards to parse_ht_entry.
type internalMeta struct {
	qpn        uint32
	lookupKey  uint64
	targetAddr uint64
}

// Kernel is the GET kernel.
type Kernel struct {
	gets   uint64
	misses uint64
}

// New creates a GET kernel.
func New() *Kernel { return &Kernel{} }

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "get" }

// Gets reports completed GET operations.
func (k *Kernel) Gets() uint64 { return k.gets }

// Misses reports lookups where no bucket key matched (the kernel then
// used bucket 0, mirroring the listing).
func (k *Kernel) Misses() uint64 { return k.misses }

// Resources implements core.Kernel.
func (k *Kernel) Resources() fpga.Resources {
	return fpga.Resources{LUTs: 4800, FFs: 6900, BRAMs: 5}
}

// Stream implements core.Kernel; GET takes no payload.
func (k *Kernel) Stream(ctx *core.Context, qpn uint32, data []byte, last bool) {}

// Invoke implements core.Kernel: the dataflow of Listing 2.
func (k *Kernel) Invoke(ctx *core.Context, qpn uint32, raw []byte) {
	params, err := DecodeParams(raw)
	if err != nil {
		ctx.Tracef("bad params: %v", err)
		return
	}
	k.fetchHTEntry(ctx, internalMeta{qpn: qpn, lookupKey: params.Key, targetAddr: params.TargetAddr}, params.Address)
}

// fetchHTEntry issues the 64 B entry read (Listing 3): one DMA command
// plus metadata pushed to the next stage.
func (k *Kernel) fetchHTEntry(ctx *core.Context, meta internalMeta, entryAddr uint64) {
	ctx.State(meta.qpn, "FETCH_HT_ENTRY")
	ctx.DMARead(entryAddr, entrySize, func(entry []byte, err error) {
		if err != nil {
			k.fail(ctx, meta)
			return
		}
		k.parseHTEntry(ctx, meta, entry)
	})
}

// parseHTEntry compares the lookup key against all buckets concurrently
// (the unrolled loop of Listing 4) and issues the value read.
func (k *Kernel) parseHTEntry(ctx *core.Context, meta internalMeta, entry []byte) {
	ctx.State(meta.qpn, "PARSE_HT_ENTRY")
	var match [buckets]bool
	for i := 0; i < buckets; i++ {
		match[i] = binary.LittleEndian.Uint64(entry[i*bucketStride:]) == meta.lookupKey
	}
	// The listing's selection: bucket 1, else bucket 2, else bucket 0.
	matchIdx := 0
	switch {
	case match[1]:
		matchIdx = 1
	case match[2]:
		matchIdx = 2
	}
	if !match[0] && !match[1] && !match[2] {
		k.misses++
	}
	valuePtr := binary.LittleEndian.Uint64(entry[matchIdx*bucketStride+8:])
	valueLen := binary.LittleEndian.Uint32(entry[matchIdx*bucketStride+16:])
	// merge_read_cmds / split_read_data: the value read command follows
	// the entry read on the shared DMA command stream; response data is
	// routed to the RoCE TX path.
	ctx.State(meta.qpn, "READ_VALUE")
	ctx.DMARead(valuePtr, int(valueLen), func(value []byte, err error) {
		if err != nil {
			k.fail(ctx, meta)
			return
		}
		k.gets++
		ctx.State(meta.qpn, "RESPOND")
		ctx.Respond(meta.qpn, meta.targetAddr, value, len(value), StatusDone)
	})
}

func (k *Kernel) fail(ctx *core.Context, meta internalMeta) {
	ctx.Respond(meta.qpn, meta.targetAddr, nil, 0, StatusError)
}
