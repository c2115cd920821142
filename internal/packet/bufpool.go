package packet

import "sync"

// The frame free list recycles encoded-frame buffers across TX
// pipelines, fabric hops and DMA commands (DESIGN.md §2.2). The TX path
// of a single message can encode hundreds of thousands of MTU-sized
// frames; recycling the buffers keeps the simulator's hot path free of
// per-packet allocations.
//
// It is one LIFO for the whole process, behind a mutex, so the shards of
// a group and concurrent simulations may exchange buffers. It is not one
// list per engine on purpose: a testbed built for a short run — every
// round of the benchmark builds a fresh one — would start with an empty
// list and allocate each of its frames anew. Unlike a sync.Pool, the
// collector never empties it and it has no per-P shards to regrow, so a
// warm process takes every frame from it. It is bounded in count and in
// buffer size, and holds plain byte slices only, so it cannot leak
// simulation state between independent engines: every byte of a frame
// taken from it is rewritten by EncodeTo or CloneFrame before use.
var frames struct {
	mu   sync.Mutex
	free [][]byte
}

const (
	// frameCap is the capacity of a new buffer and the most a listed
	// one may have: the largest frame the stack builds (a PathMTUPayload
	// segment with all its headers) fits, and a buffer grown past it is
	// left to the collector rather than kept.
	frameCap = 2048
	// maxFreeFrames bounds the list (8 MiB of buffers); beyond it, a
	// returned buffer falls to the collector. In practice the list never
	// outgrows the peak number of frames in flight.
	maxFreeFrames = 1 << 12
)

// GetBuf returns an empty frame buffer from the free list. Grow it with
// append or hand it to Packet.EncodeTo; return it with PutBuf once the
// frame is no longer referenced anywhere.
func GetBuf() []byte {
	frames.mu.Lock()
	if n := len(frames.free); n > 0 {
		b := frames.free[n-1]
		frames.free[n-1] = nil
		frames.free = frames.free[:n-1]
		frames.mu.Unlock()
		return b
	}
	frames.mu.Unlock()
	return make([]byte, 0, frameCap)
}

// PutBuf recycles a frame buffer. The caller must own buf exclusively
// and must not touch it afterwards. Buffers that did not come from
// GetBuf are accepted too (ownership is what matters, not origin).
func PutBuf(buf []byte) {
	if cap(buf) == 0 || cap(buf) > frameCap {
		return
	}
	frames.mu.Lock()
	if len(frames.free) < maxFreeFrames {
		frames.free = append(frames.free, buf[:0])
	}
	frames.mu.Unlock()
}

// CloneFrame copies frame into a recycled buffer. The clone is owned by
// the caller (release with PutBuf or pass the ownership on).
func CloneFrame(frame []byte) []byte {
	return append(GetBuf(), frame...)
}
